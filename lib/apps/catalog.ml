type spec = {
  app : string;
  fpgas : int;
  iters : int;
  dataset : string;
  n : int;
  d : int;
  cols : int;
}

let apps = [ "stencil"; "pagerank"; "knn"; "cnn" ]

let positive field v =
  if v > 0 then Ok v else Error (Printf.sprintf "%s must be a positive integer, got %d" field v)

let build s =
  let ( let* ) = Result.bind in
  let* fpgas = positive "fpgas" s.fpgas in
  match s.app with
  | "stencil" ->
    let* iterations = positive "iters" s.iters in
    Ok (Stencil.generate (Stencil.make_config ~iterations ~fpgas ()))
  | "pagerank" -> (
    match Dataset.find s.dataset with
    | Some dataset -> Ok (Pagerank.generate (Pagerank.make_config ~dataset ~fpgas ()))
    | None -> Error (Printf.sprintf "unknown dataset %S" s.dataset))
  | "knn" ->
    let* n_points = positive "n" s.n in
    let* dims = positive "d" s.d in
    Ok (Knn.generate (Knn.make_config ~n_points ~dims ~fpgas ()))
  | "cnn" ->
    let* cols = positive "cols" s.cols in
    Ok (Cnn.generate (Cnn.make_config ~cols ~fpgas ()))
  | other -> Error (Printf.sprintf "unknown app %S" other)

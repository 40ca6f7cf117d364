(* Golden files under test/golden.  [check] compares, or rewrites the
   file when TAPA_CS_UPDATE_GOLDEN is set (into TAPA_CS_GOLDEN_DIR,
   default ./golden).  dune runtest runs in the test directory, dune
   exec in the workspace root: accept both. *)

let dir () =
  match Sys.getenv_opt "TAPA_CS_GOLDEN_DIR" with
  | Some d -> d
  | None -> if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

let check name actual =
  let path = Filename.concat (dir ()) name in
  if Sys.getenv_opt "TAPA_CS_UPDATE_GOLDEN" <> None then begin
    let oc = open_out path in
    output_string oc actual;
    close_out oc
  end
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let expected = really_input_string ic n in
    close_in ic;
    if actual <> expected then begin
      (* The files are one decision or artifact line each: report how many
         lines drifted and the first of them. *)
      let lines s = Array.of_list (String.split_on_char '\n' s) in
      let a = lines actual and e = lines expected in
      let line l i = if i < Array.length l then l.(i) else "<none>" in
      let drifted =
        List.filter
          (fun i -> line a i <> line e i)
          (List.init (Stdlib.max (Array.length a) (Array.length e)) Fun.id)
      in
      let first = match drifted with i :: _ -> i | [] -> 0 in
      Alcotest.failf
        "%s drifted from its golden file: %d line(s) differ, first at line %d \
         (regenerate with TAPA_CS_UPDATE_GOLDEN=1)\n\
        \  got:  %s\n\
        \  want: %s"
        name (List.length drifted) (first + 1) (line a first) (line e first)
    end
  end

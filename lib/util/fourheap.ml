type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp = { cmp; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size >= cap then begin
    let ncap = Stdlib.max 16 (cap * 2) in
    let nd = Array.make ncap x in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

(* Children of node [i] are [4i+1 .. 4i+4]; parent of [i] is [(i-1)/4].
   Half the tree height of the binary heap, so pops do half the sift
   levels — and pushes compare against a parent chain only a quarter as
   long as the element count would suggest. *)

let push h x =
  grow h x;
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if h.cmp x h.data.(parent) < 0 then begin
      h.data.(!i) <- h.data.(parent);
      i := parent
    end
    else continue := false
  done;
  h.data.(!i) <- x

let peek h = if h.size = 0 then None else Some h.data.(0)

let sift_down h x =
  (* Re-inserts [x] starting from the root, moving the smallest child up
     at each level instead of swapping — one store per level. *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= h.size then continue := false
    else begin
      let last = Stdlib.min (first + 3) (h.size - 1) in
      let best = ref first in
      for c = first + 1 to last do
        if h.cmp h.data.(c) h.data.(!best) < 0 then best := c
      done;
      if h.cmp h.data.(!best) x < 0 then begin
        h.data.(!i) <- h.data.(!best);
        i := !best
      end
      else continue := false
    end
  done;
  h.data.(!i) <- x

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then sift_down h h.data.(h.size);
    Some top
  end

let pop_exn h = match pop h with Some x -> x | None -> raise Not_found

(* Growable array for the DRAT checker's clause store, watch lists and
   trail: O(1) random access, O(1) amortized push and O(1) truncation. *)

type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) dummy =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size t = t.size

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let unsafe_get t i = Array.unsafe_get t.data i
let unsafe_set t i v = Array.unsafe_set t.data i v

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t v =
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- v;
  t.size <- t.size + 1

(* Truncate to [n] elements, n <= size. *)
let shrink t n =
  if n < 0 || n > t.size then invalid_arg "Vec.shrink";
  Array.fill t.data n (t.size - n) t.dummy;
  t.size <- n

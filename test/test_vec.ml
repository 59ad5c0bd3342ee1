(* Unit tests for the DRAT checker's growable-array container. *)

module Vec = Sat.Vec

let test_bounds () =
  let v = Vec.create 0 in
  Vec.push v 1;
  Alcotest.(check bool) "get oob" true
    (match Vec.get v 1 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "shrink beyond size" true
    (match Vec.shrink v 2 with exception Invalid_argument _ -> true | _ -> false)

let test_shrink_clear () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 1; 2; 3; 4; 5 ];
  Vec.shrink v 3;
  Alcotest.(check (list int)) "shrunk" [ 1; 2; 3 ] (List.init (Vec.size v) (Vec.get v));
  Vec.shrink v 0;
  Alcotest.(check int) "shrunk to empty" 0 (Vec.size v)

let test_growth () =
  let v = Vec.create ~capacity:1 0 in
  for i = 0 to 999 do
    Vec.push v i
  done;
  Alcotest.(check int) "size" 1000 (Vec.size v);
  Alcotest.(check int) "content preserved across growth" 999 (Vec.get v 999)

let suite =
  [
    ("vec.bounds", `Quick, test_bounds);
    ("vec.shrink_clear", `Quick, test_shrink_clear);
    ("vec.growth", `Quick, test_growth);
  ]

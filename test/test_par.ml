(* Tests for the domain pool: deterministic ordering, serial equivalence,
   first-error ordering, timing capture, and the governed pool's watchdog. *)

let squares n = List.init n (fun i -> i * i)

let test_ordering_preserved () =
  let xs = List.init 100 (fun i -> i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (squares 100)
        (Par.map ~jobs (fun i -> i * i) xs))
    [ 1; 2; 4; 7 ]

let test_jobs_one_equals_serial () =
  let xs = List.init 37 (fun i -> i) in
  let serial = List.map (fun i -> (i * 31) mod 17) xs in
  Alcotest.(check (list int)) "jobs=1 equals List.map" serial
    (Par.map ~jobs:1 (fun i -> (i * 31) mod 17) xs);
  Alcotest.(check (list int)) "jobs=4 equals List.map" serial
    (Par.map ~jobs:4 (fun i -> (i * 31) mod 17) xs)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Par.map ~jobs:4 (fun i -> i * 9) [ 1 ])

let test_map_raises_first_error_in_order () =
  let xs = List.init 20 (fun i -> i) in
  match Par.map ~jobs:4 (fun i -> if i mod 6 = 5 then failwith (string_of_int i) else i) xs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      (* Failing indices are 5, 11, 17; the first in input order wins, no
         matter which domain hit its failure first. *)
      Alcotest.(check string) "first failure by input order" "5" msg

let test_map_timed () =
  let xs = [ 1; 2; 3; 4 ] in
  let timed = Par.map_timed ~jobs:2 (fun i -> i * 2) xs in
  Alcotest.(check (list int)) "values" [ 2; 4; 6; 8 ] (List.map fst timed);
  List.iter (fun (_, dt) -> Alcotest.(check bool) "time non-negative" true (dt >= 0.0)) timed

let test_more_jobs_than_tasks () =
  Alcotest.(check (list int)) "jobs > n" [ 0; 1; 4 ]
    (Par.map ~jobs:64 (fun i -> i * i) [ 0; 1; 2 ])

let test_invalid_jobs () =
  Alcotest.(check bool) "jobs=0 rejected" true
    (match Par.map ~jobs:0 (fun i -> i) [ 1 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Stress determinism across jobs counts on a non-commutative fold of the
   results: any ordering bug changes the fold value. *)
let prop_deterministic_across_jobs =
  QCheck.Test.make ~count:50 ~name:"par.map deterministic across jobs"
    (QCheck.make
       ~print:(fun (n, jobs) -> Printf.sprintf "n=%d jobs=%d" n jobs)
       QCheck.Gen.(
         int_range 0 200 >>= fun n ->
         int_range 1 8 >>= fun jobs -> return (n, jobs)))
    (fun (n, jobs) ->
      let xs = List.init n (fun i -> i) in
      let f i = (i * 7919) lxor (i lsl 3) in
      let serial = List.map f xs in
      Par.map ~jobs f xs = serial)

let suite =
  [
    ("par.ordering", `Quick, test_ordering_preserved);
    ("par.jobs1_serial", `Quick, test_jobs_one_equals_serial);
    ("par.empty_singleton", `Quick, test_empty_and_singleton);
    ("par.first_error_in_order", `Quick, test_map_raises_first_error_in_order);
    ("par.map_timed", `Quick, test_map_timed);
    ("par.more_jobs_than_tasks", `Quick, test_more_jobs_than_tasks);
    ("par.invalid_jobs", `Quick, test_invalid_jobs);
    Qc.to_alcotest prop_deterministic_across_jobs;
  ]

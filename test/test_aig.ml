(* AIG tests: local simplification rules, structural hashing, evaluation,
   and the Tseitin CNF emitter cross-checked against evaluation. *)

let test_constants () =
  Alcotest.(check int) "not false" Aig.true_ (Aig.not_ Aig.false_);
  Alcotest.(check int) "not true" Aig.false_ (Aig.not_ Aig.true_);
  Alcotest.(check int) "of_bool" Aig.true_ (Aig.of_bool true)

let test_simplifications () =
  let g = Aig.create () in
  let x = Aig.fresh_input g in
  Alcotest.(check int) "x & 0 = 0" Aig.false_ (Aig.and_ g x Aig.false_);
  Alcotest.(check int) "x & 1 = x" x (Aig.and_ g x Aig.true_);
  Alcotest.(check int) "x & x = x" x (Aig.and_ g x x);
  Alcotest.(check int) "x & ~x = 0" Aig.false_ (Aig.and_ g x (Aig.not_ x));
  Alcotest.(check int) "no gate created" 0 (Aig.num_ands g)

let test_hash_consing () =
  let g = Aig.create () in
  let x = Aig.fresh_input g and y = Aig.fresh_input g in
  let a1 = Aig.and_ g x y in
  let a2 = Aig.and_ g y x in
  Alcotest.(check int) "commutative sharing" a1 a2;
  Alcotest.(check int) "one gate" 1 (Aig.num_ands g);
  let o1 = Aig.or_ g x y and o2 = Aig.or_ g x y in
  Alcotest.(check int) "or shared" o1 o2

let test_eval_gates () =
  let g = Aig.create () in
  let x = Aig.fresh_input g and y = Aig.fresh_input g in
  let check name f lit =
    List.iter
      (fun (vx, vy) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s(%b,%b)" name vx vy)
          (f vx vy)
          (Aig.eval g [| vx; vy |] lit))
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  check "and" ( && ) (Aig.and_ g x y);
  check "or" ( || ) (Aig.or_ g x y);
  check "xor" ( <> ) (Aig.xor_ g x y);
  check "xnor" ( = ) (Aig.xnor_ g x y);
  check "implies" (fun a b -> (not a) || b) (Aig.implies g x y)

let test_eval_ite () =
  let g = Aig.create () in
  let c = Aig.fresh_input g and a = Aig.fresh_input g and b = Aig.fresh_input g in
  let m = Aig.ite g c a b in
  List.iter
    (fun (vc, va, vb) ->
      Alcotest.(check bool) "ite" (if vc then va else vb) (Aig.eval g [| vc; va; vb |] m))
    [
      (true, true, false); (true, false, true); (false, true, false); (false, false, true);
    ]

let test_input_index () =
  let g = Aig.create () in
  let x = Aig.fresh_input g and y = Aig.fresh_input g in
  Alcotest.(check (option int)) "x index" (Some 0) (Aig.input_index g x);
  Alcotest.(check (option int)) "y index" (Some 1) (Aig.input_index g y);
  Alcotest.(check (option int)) "complement keeps index" (Some 1)
    (Aig.input_index g (Aig.not_ y));
  Alcotest.(check (option int)) "gate is not input" None
    (Aig.input_index g (Aig.and_ g x y))

let test_and_or_lists () =
  let g = Aig.create () in
  Alcotest.(check int) "empty and" Aig.true_ (Aig.and_list g []);
  Alcotest.(check int) "empty or" Aig.false_ (Aig.or_list g []);
  let xs = List.init 4 (fun _ -> Aig.fresh_input g) in
  let conj = Aig.and_list g xs in
  Alcotest.(check bool) "all true" true (Aig.eval g [| true; true; true; true |] conj);
  Alcotest.(check bool) "one false" false (Aig.eval g [| true; false; true; true |] conj)

(* CNF emitter agrees with evaluation, checked exhaustively on random
   small circuits: for every input assignment, SAT-under-assumptions of
   (circuit = expected) must be satisfiable, and of (circuit <> expected)
   unsatisfiable. *)
let random_circuit rand n_inputs n_gates =
  let g = Aig.create () in
  let inputs = Array.init n_inputs (fun _ -> Aig.fresh_input g) in
  let pool = ref (Array.to_list inputs @ [ Aig.true_; Aig.false_ ]) in
  let pick () =
    let l = List.nth !pool (Random.State.int rand (List.length !pool)) in
    if Random.State.bool rand then Aig.not_ l else l
  in
  for _ = 1 to n_gates do
    let a = pick () and b = pick () in
    let node =
      match Random.State.int rand 3 with
      | 0 -> Aig.and_ g a b
      | 1 -> Aig.or_ g a b
      | _ -> Aig.xor_ g a b
    in
    pool := node :: !pool
  done;
  (g, inputs, List.hd !pool)

let test_cnf_matches_eval () =
  let rand = Random.State.make [| 42 |] in
  for _trial = 1 to 50 do
    let n_inputs = 1 + Random.State.int rand 5 in
    let g, inputs, root = random_circuit rand n_inputs (5 + Random.State.int rand 20) in
    let solver = Sat.Solver.create () in
    let emitter = Aig.Cnf.make g solver in
    let root_sat = Aig.Cnf.sat_lit emitter root in
    let input_sats = Array.map (Aig.Cnf.sat_lit emitter) inputs in
    for assignment = 0 to (1 lsl n_inputs) - 1 do
      let values = Array.init n_inputs (fun i -> assignment land (1 lsl i) <> 0) in
      let expected = Aig.eval g values root in
      let assumptions =
        Array.to_list
          (Array.mapi
             (fun i l -> if values.(i) then l else Sat.Lit.negate l)
             input_sats)
      in
      let with_root = (if expected then root_sat else Sat.Lit.negate root_sat) :: assumptions in
      let against_root =
        (if expected then Sat.Lit.negate root_sat else root_sat) :: assumptions
      in
      if Sat.Solver.solve ~assumptions:with_root solver <> Sat.Solver.Sat then
        Alcotest.fail "CNF disagrees with eval (expected value unsat)";
      if Sat.Solver.solve ~assumptions:against_root solver <> Sat.Solver.Unsat then
        Alcotest.fail "CNF disagrees with eval (wrong value sat)"
    done
  done

(* ---- rewriting ---- *)

(* Each rewrite rule family fires on its textbook instance and the hit
   counter records it. *)
let test_rewrite_rules () =
  let g = Aig.create ~rewrite:true () in
  let x = Aig.fresh_input g and y = Aig.fresh_input g in
  let xy = Aig.and_ g x y in
  Alcotest.(check int) "absorption: x & (x & y) = x & y" xy (Aig.and_ g x xy);
  Alcotest.(check int) "annihilation: ~x & (x & y) = 0" Aig.false_
    (Aig.and_ g (Aig.not_ x) xy);
  Alcotest.(check int) "substitution: x & ~(x & y) = x & ~y" (Aig.and_ g x (Aig.not_ y))
    (Aig.and_ g x (Aig.not_ xy));
  Alcotest.(check int) "subsumption: x & ~(~x & y) = x" x
    (Aig.and_ g x (Aig.not_ (Aig.and_ g (Aig.not_ x) y)));
  let n1 = Aig.not_ (Aig.and_ g x y) and n2 = Aig.not_ (Aig.and_ g x (Aig.not_ y)) in
  Alcotest.(check int) "resolution: ~(x & y) & ~(x & ~y) = ~x" (Aig.not_ x)
    (Aig.and_ g n1 n2);
  Alcotest.(check bool) "rewrites counted" true (Aig.num_rewrites g > 0)

(* The same random structure built with rewriting on and off evaluates
   identically on every assignment, and rewriting never grows the graph. *)
let test_rewrite_eval_equiv () =
  let rand = Random.State.make [| 77 |] in
  for _trial = 1 to 50 do
    let n_inputs = 1 + Random.State.int rand 4 in
    let g0 = Aig.create () and g1 = Aig.create ~rewrite:true () in
    let inputs = Array.init n_inputs (fun _ -> (Aig.fresh_input g0, Aig.fresh_input g1)) in
    let pool =
      ref (Array.to_list inputs @ [ (Aig.true_, Aig.true_); (Aig.false_, Aig.false_) ])
    in
    let pick () =
      let l0, l1 = List.nth !pool (Random.State.int rand (List.length !pool)) in
      if Random.State.bool rand then (Aig.not_ l0, Aig.not_ l1) else (l0, l1)
    in
    for _ = 1 to 10 + Random.State.int rand 20 do
      let a0, a1 = pick () and b0, b1 = pick () in
      pool := (Aig.and_ g0 a0 b0, Aig.and_ g1 a1 b1) :: !pool
    done;
    let r0, r1 = List.hd !pool in
    for assignment = 0 to (1 lsl n_inputs) - 1 do
      let values = Array.init n_inputs (fun i -> assignment land (1 lsl i) <> 0) in
      Alcotest.(check bool)
        "rewrite preserves semantics" (Aig.eval g0 values r0) (Aig.eval g1 values r1)
    done;
    if Aig.num_ands g1 > Aig.num_ands g0 then Alcotest.fail "rewriting grew the graph"
  done

(* ---- Plaisted-Greenbaum emission ---- *)

(* The PG emitter agrees with evaluation in both polarities (on-demand
   polarity upgrades included) and never emits more clauses than plain
   Tseitin would. *)
let test_pg_cnf_matches_eval () =
  let rand = Random.State.make [| 43 |] in
  for _trial = 1 to 50 do
    let n_inputs = 1 + Random.State.int rand 5 in
    let g, inputs, root = random_circuit rand n_inputs (5 + Random.State.int rand 20) in
    let solver = Sat.Solver.create () in
    let emitter = Aig.Cnf.make ~pg:true g solver in
    let input_sats = Array.map (Aig.Cnf.sat_lit emitter) inputs in
    for assignment = 0 to (1 lsl n_inputs) - 1 do
      let values = Array.init n_inputs (fun i -> assignment land (1 lsl i) <> 0) in
      let expected = Aig.eval g values root in
      let assumptions =
        Array.to_list
          (Array.mapi (fun i l -> if values.(i) then l else Sat.Lit.negate l) input_sats)
      in
      (* Ask for each direction through the emitter so the polarity the
         assumption needs is emitted before solving. *)
      let same =
        Aig.Cnf.sat_lit emitter (if expected then root else Aig.not_ root)
      in
      let flipped =
        Aig.Cnf.sat_lit emitter (if expected then Aig.not_ root else root)
      in
      if Sat.Solver.solve ~assumptions:(same :: assumptions) solver <> Sat.Solver.Sat
      then Alcotest.fail "PG CNF disagrees with eval (expected value unsat)";
      if Sat.Solver.solve ~assumptions:(flipped :: assumptions) solver <> Sat.Solver.Unsat
      then Alcotest.fail "PG CNF disagrees with eval (wrong value sat)"
    done;
    let st = Aig.Cnf.stats emitter in
    if st.Aig.Cnf.cnf_clauses > st.Aig.Cnf.cnf_clauses_plain then
      Alcotest.fail "PG emitted more clauses than plain Tseitin"
  done

(* A root used in one polarity only stays single-polarity: strictly fewer
   clauses than the plain encoding of the same cone. *)
let test_pg_single_polarity_savings () =
  let g = Aig.create () in
  let xs = List.init 6 (fun _ -> Aig.fresh_input g) in
  let root = Aig.and_list g (List.mapi (fun i x -> if i mod 2 = 0 then x else Aig.not_ x) xs) in
  let solver = Sat.Solver.create () in
  let emitter = Aig.Cnf.make ~pg:true g solver in
  ignore (Aig.Cnf.sat_lit emitter root);
  let st = Aig.Cnf.stats emitter in
  Alcotest.(check bool) "fewer clauses than plain" true
    (st.Aig.Cnf.cnf_clauses < st.Aig.Cnf.cnf_clauses_plain);
  Alcotest.(check bool) "single-polarity nodes counted" true (st.Aig.Cnf.cnf_single_pol > 0)

(* Random circuits over the constructors that build if-then-else
   structure ([xor_], [xnor_], [ite]), emitted plain and with PG (so with
   gate recognition). Both polarities of the root are requested, in a
   random order, so on-demand upgrades of gate nodes run; every input
   assignment must then agree with evaluation. *)
let gate_circuit rand n_inputs n_gates =
  let g = Aig.create () in
  let inputs = Array.init n_inputs (fun _ -> Aig.fresh_input g) in
  let pool = ref (Array.to_list inputs) in
  let pick () =
    let l = List.nth !pool (Random.State.int rand (List.length !pool)) in
    if Random.State.bool rand then Aig.not_ l else l
  in
  for _ = 1 to n_gates do
    let a = pick () and b = pick () in
    let node =
      match Random.State.int rand 5 with
      | 0 -> Aig.and_ g a b
      | 1 -> Aig.or_ g a b
      | 2 -> Aig.xor_ g a b
      | 3 -> Aig.xnor_ g a b
      | _ -> Aig.ite g (pick ()) a b
    in
    pool := node :: !pool
  done;
  (g, inputs, List.hd !pool)

let test_gate_cnf_matches_eval () =
  let rand = Random.State.make [| 44 |] in
  let gates = ref 0 in
  for _trial = 1 to 60 do
    let n_inputs = 1 + Random.State.int rand 5 in
    let g, inputs, root = gate_circuit rand n_inputs (3 + Random.State.int rand 20) in
    List.iter
      (fun pg ->
        let solver = Sat.Solver.create () in
        let emitter = Aig.Cnf.make ~pg g solver in
        let input_sats = Array.map (Aig.Cnf.sat_lit emitter) inputs in
        let first, second =
          if Random.State.bool rand then (root, Aig.not_ root) else (Aig.not_ root, root)
        in
        let l_first = Aig.Cnf.sat_lit emitter first in
        let l_second = Aig.Cnf.sat_lit emitter second in
        for assignment = 0 to (1 lsl n_inputs) - 1 do
          let values = Array.init n_inputs (fun i -> assignment land (1 lsl i) <> 0) in
          let assumptions =
            Array.to_list
              (Array.mapi (fun i l -> if values.(i) then l else Sat.Lit.negate l) input_sats)
          in
          List.iter
            (fun (aig_lit, sat_lit) ->
              let expected =
                if Aig.eval g values aig_lit then Sat.Solver.Sat else Sat.Solver.Unsat
              in
              if Sat.Solver.solve ~assumptions:(sat_lit :: assumptions) solver <> expected
              then Alcotest.failf "gate CNF (pg %b) disagrees with eval" pg)
            [ (first, l_first); (second, l_second) ]
        done;
        let st = Aig.Cnf.stats emitter in
        if st.Aig.Cnf.cnf_clauses > st.Aig.Cnf.cnf_clauses_plain then
          Alcotest.fail "emitted more clauses than plain Tseitin";
        if pg then gates := !gates + st.Aig.Cnf.cnf_gates
        else Alcotest.(check int) "plain mode encodes no gate" 0 st.Aig.Cnf.cnf_gates)
      [ true; false ]
  done;
  Alcotest.(check bool) "gates recognised" true (!gates > 0);
  (* The cost of one mux in one polarity: PG with gate recognition gives
     its output and its three operands a variable and emits two clauses;
     per-node PG would also give the two inner AND nodes a variable. The
     plain figure counts all three AND nodes, as does plain emission. *)
  List.iter
    (fun (pg, use, vars, clauses) ->
      let g = Aig.create () in
      let c = Aig.fresh_input g and a = Aig.fresh_input g and b = Aig.fresh_input g in
      let m = Aig.ite g c a b in
      let emitter = Aig.Cnf.make ~pg g (Sat.Solver.create ()) in
      ignore (Aig.Cnf.sat_lit emitter (use m));
      let st = Aig.Cnf.stats emitter in
      let what = Printf.sprintf "pg %b" pg in
      Alcotest.(check int) (what ^ ": vars") vars st.Aig.Cnf.cnf_vars;
      Alcotest.(check int) (what ^ ": clauses") clauses st.Aig.Cnf.cnf_clauses;
      Alcotest.(check int) (what ^ ": plain") 9 st.Aig.Cnf.cnf_clauses_plain;
      Alcotest.(check int) (what ^ ": gates") (if pg then 1 else 0) st.Aig.Cnf.cnf_gates)
    [
      (true, Fun.id, 4, 2);
      (true, Aig.not_, 4, 2);
      (false, Fun.id, 6, 9);
    ]

let test_eval_many_consistent () =
  let g = Aig.create () in
  let x = Aig.fresh_input g and y = Aig.fresh_input g in
  let roots = [ Aig.and_ g x y; Aig.or_ g x y; Aig.xor_ g x y ] in
  let inputs = [| true; false |] in
  Alcotest.(check (list bool))
    "eval_many = map eval" (List.map (Aig.eval g inputs) roots)
    (Aig.eval_many g inputs roots)

let suite =
  [
    ("aig.constants", `Quick, test_constants);
    ("aig.simplifications", `Quick, test_simplifications);
    ("aig.hash_consing", `Quick, test_hash_consing);
    ("aig.eval_gates", `Quick, test_eval_gates);
    ("aig.eval_ite", `Quick, test_eval_ite);
    ("aig.input_index", `Quick, test_input_index);
    ("aig.lists", `Quick, test_and_or_lists);
    ("aig.cnf_matches_eval", `Quick, test_cnf_matches_eval);
    ("aig.rewrite_rules", `Quick, test_rewrite_rules);
    ("aig.rewrite_eval_equiv", `Quick, test_rewrite_eval_equiv);
    ("aig.pg_cnf_matches_eval", `Quick, test_pg_cnf_matches_eval);
    ("aig.pg_single_polarity", `Quick, test_pg_single_polarity_savings);
    ("aig.gate_cnf_matches_eval", `Quick, test_gate_cnf_matches_eval);
    ("aig.eval_many", `Quick, test_eval_many_consistent);
  ]

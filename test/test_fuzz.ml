(* Differential-fuzz harness tests: the generator's invariants, each oracle
   on a known-good stack, the shrinker, DRAT certification end to end — and
   the negative case: a corrupted proof must be rejected. *)

module Lit = Sat.Lit
module Solver = Sat.Solver
module Drat = Sat.Drat

(* ---- generator ---- *)

let test_gen_well_typed () =
  (* Every generated design passes the validating constructor (Gen.design
     calls it) and is deterministic in the seed. *)
  for seed = 0 to 20 do
    let d1 = Fuzz.Gen.design (Random.State.make [| seed |]) in
    let d2 = Fuzz.Gen.design (Random.State.make [| seed |]) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d deterministic" seed)
      (Fuzz.design_to_string d1) (Fuzz.design_to_string d2)
  done

let test_gen_true_invariant_is_true () =
  (* The "true by algebra" invariants really are true: check by random
     concrete evaluation across many seeds. *)
  for seed = 0 to 50 do
    let rand = Random.State.make [| 0xBEEF; seed |] in
    let vars = [ { Expr.name = "a"; width = 7 }; { Expr.name = "b"; width = 3 } ] in
    let inv = Fuzz.Gen.true_invariant rand ~vars in
    Alcotest.(check int) "1-bit" 1 (Expr.width inv);
    for _ = 1 to 20 do
      let valu = Fuzz.Gen.valuation rand vars in
      let v = Expr.eval (fun v -> Rtl.Smap.find v.Expr.name valu) inv in
      if not (Bitvec.to_bool v) then
        Alcotest.failf "invariant %s is falsifiable" (Expr.to_string inv)
    done
  done

(* ---- oracles on the healthy stack ---- *)

let run_battery ~cert count =
  let s = Fuzz.run ~seed:7 ~count ~cert () in
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.failf "oracle %s failed on case %d: %s\n%s" f.Fuzz.oracle f.Fuzz.case
        f.Fuzz.message
        (Fuzz.design_to_string f.Fuzz.design))
    s.Fuzz.failures;
  s

let test_oracles_agree () = ignore (run_battery ~cert:false 20)

let test_oracles_agree_certified () =
  let s = run_battery ~cert:true 20 in
  Alcotest.(check bool)
    "certified at least one UNSAT bound per case on average" true
    (s.Fuzz.certified_unsats >= s.Fuzz.cases)

let test_dimacs_fuzz_certified () =
  Alcotest.(check (list (pair int string)))
    "no disagreements, all certificates accepted" []
    (Fuzz.dimacs ~max_vars:12 ~seed:3 ~count:150 ~cert:true ())

(* ---- shrinking ---- *)

let test_shrink_converges () =
  (* A synthetic failure condition — "mentions register r0" — must shrink
     to a design that still mentions r0 but has shed unrelated inputs,
     registers and outputs. *)
  let d = Fuzz.Gen.design (Random.State.make [| 99 |]) in
  let mentions_r0 (d : Rtl.design) =
    List.exists (fun (r : Rtl.reg) -> r.Rtl.reg.Expr.name = "r0") d.Rtl.registers
  in
  if not (mentions_r0 d) then Alcotest.fail "seed 99 should generate r0";
  let small = Fuzz.shrink ~failing:mentions_r0 d in
  Alcotest.(check bool) "still failing" true (mentions_r0 small);
  Alcotest.(check int) "all outputs dropped" 0 (List.length small.Rtl.outputs);
  Alcotest.(check int) "all inputs dropped" 0 (List.length small.Rtl.inputs);
  Alcotest.(check int) "only r0 remains" 1 (List.length small.Rtl.registers)

let test_shrink_keeps_failure () =
  (* Shrinking against a predicate that rejects everything returns the
     original design unchanged. *)
  let d = Fuzz.Gen.design (Random.State.make [| 5 |]) in
  let small = Fuzz.shrink ~failing:(fun _ -> false) d in
  Alcotest.(check string) "unchanged" (Fuzz.design_to_string d)
    (Fuzz.design_to_string small)

(* ---- DRAT checker unit tests ---- *)

let lits = Array.map (fun i -> Lit.of_dimacs i)

let test_drat_trivial_refutation () =
  let proof = [ Drat.Input (lits [| 1 |]); Drat.Input (lits [| -1 |]) ] in
  Alcotest.(check bool) "accepted" true (Drat.check proof = Ok ())

let test_drat_duplicate_literals () =
  (* Input clauses arrive as written, duplicates and all: [x x] is the unit
     [x]. The checker must normalize or it never propagates these. *)
  let proof =
    [
      Drat.Input (lits [| 1; 1; 1 |]);
      Drat.Input (lits [| -1; -1 |]);
    ]
  in
  Alcotest.(check bool) "accepted" true (Drat.check proof = Ok ())

let test_drat_tautology_input () =
  (* A tautological input clause contributes nothing; the remaining clauses
     still refute. *)
  let proof =
    [
      Drat.Input (lits [| 1; -1 |]);
      Drat.Input (lits [| 2 |]);
      Drat.Input (lits [| -2 |]);
    ]
  in
  Alcotest.(check bool) "accepted" true (Drat.check proof = Ok ())

let test_drat_rejects_non_rup () =
  (* Adding an underivable clause must be rejected even if the formula is
     genuinely unsatisfiable later. *)
  let proof =
    [
      Drat.Input (lits [| 1; 2 |]);
      Drat.Add (lits [| 1 |]);
      (* not RUP: (1 2) does not imply 1 *)
    ]
  in
  match Drat.check proof with
  | Ok () -> Alcotest.fail "accepted a non-RUP addition"
  | Error msg ->
      Alcotest.(check bool) "cites the event" true
        (String.length msg > 0 && msg.[0] = 'e')

let test_drat_rejects_missing_refutation () =
  let proof = [ Drat.Input (lits [| 1; 2 |]) ] in
  match Drat.check proof with
  | Ok () -> Alcotest.fail "accepted a satisfiable formula as refuted"
  | Error _ -> ()

let test_drat_delete_then_use_rejected () =
  (* After deleting the clause a derivation depends on, the derivation must
     no longer check. (The delete comes before the clause ever propagates:
     units already on the persistent trail rightly survive deletion.) *)
  let proof =
    [
      Drat.Input (lits [| 1; 2 |]);
      Drat.Delete (lits [| 1; 2 |]);
      Drat.Input (lits [| -2 |]);
      Drat.Add (lits [| 1 |]);
    ]
  in
  match Drat.check proof with
  | Ok () -> Alcotest.fail "used a deleted clause"
  | Error _ -> ()

let test_drat_assumptions () =
  (* (~a \/ ~b) is consistent, but refuted under assumptions a, b. *)
  let proof = [ Drat.Input (lits [| -1; -2 |]) ] in
  Alcotest.(check bool) "refuted under assumptions" true
    (Drat.check ~assumptions:[ Lit.of_dimacs 1; Lit.of_dimacs 2 ] proof = Ok ());
  Alcotest.(check bool) "not refuted outright" true
    (match Drat.check proof with Error _ -> true | Ok () -> false)

(* A real solver run: pigeonhole php(5,4) is UNSAT with a non-trivial
   learnt-clause derivation. Its certificate must be accepted — and any
   corruption of it rejected. *)
let php_proof () =
  let np = 5 and nh = 4 in
  let s = Solver.create () in
  Solver.start_proof s;
  let p = Array.init np (fun _ -> Array.init nh (fun _ -> Solver.new_var s)) in
  for i = 0 to np - 1 do
    Solver.add_clause s (List.init nh (fun h -> Lit.pos p.(i).(h)))
  done;
  for h = 0 to nh - 1 do
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        Solver.add_clause s [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(5,4) unsat" true (Solver.solve s = Solver.Unsat);
  Solver.proof s

let test_certificate_accepted () =
  match Drat.check (php_proof ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "genuine certificate rejected: %s" msg

let test_corrupted_certificate_rejected () =
  let proof = php_proof () in
  (* Corrupt every learnt clause by dropping its last literal: the weakened
     clauses claim more than the derivation supports. *)
  let corrupted =
    List.map
      (function
        | Drat.Add c when Array.length c >= 2 ->
            Drat.Add (Array.sub c 0 (Array.length c - 1))
        | e -> e)
      proof
  in
  Alcotest.(check bool) "has learnt clauses to corrupt" true (corrupted <> proof);
  (match Drat.check corrupted with
  | Ok () -> Alcotest.fail "corrupted certificate accepted"
  | Error _ -> ());
  (* Truncating the proof (losing learnt clauses the refutation needs) must
     also be rejected. *)
  let truncated =
    List.filter (function Drat.Add _ -> false | _ -> true) proof
  in
  match Drat.check truncated with
  | Ok () -> Alcotest.fail "truncated certificate accepted"
  | Error _ -> ()

let test_proof_serialization () =
  let proof = php_proof () in
  let drat_text = Drat.to_string proof in
  let dimacs_text = Drat.formula_to_string proof in
  Alcotest.(check bool) "DRAT text nonempty" true (String.length drat_text > 0);
  (* The DIMACS side of the pair must re-parse to the original clauses. *)
  match Sat.Dimacs.parse_string dimacs_text with
  | Error e -> Alcotest.failf "formula_to_string unparseable: %s" e
  | Ok cnf ->
      let inputs = List.filter (function Drat.Input _ -> true | _ -> false) proof in
      Alcotest.(check int) "clause count" (List.length inputs)
        (List.length cnf.Sat.Dimacs.clauses)

(* ---- certified BMC ---- *)

let test_bmc_certify_holds () =
  (* A width-4 counter with a true invariant: every UNSAT bound certified. *)
  let cnt = { Expr.name = "cnt"; width = 4 } in
  let design =
    Rtl.make ~name:"counter" ~inputs:[]
      ~registers:
        [
          {
            Rtl.reg = cnt;
            init = Bitvec.zero 4;
            next = Expr.add (Expr.of_var cnt) (Expr.const_int ~width:4 1);
          };
        ]
      ~outputs:[ ("count", Expr.of_var cnt) ]
  in
  let invariant = Expr.ule (Expr.of_var cnt) (Expr.const_int ~width:4 15) in
  match Bmc.check_safety ~certify:true ~design ~invariant ~depth:4 () with
  | Bmc.Holds 4, _ -> ()
  | Bmc.Violated _, _ -> Alcotest.fail "trivially true invariant violated"
  | Bmc.Holds d, _ -> Alcotest.failf "unexpected bound %d" d
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_bmc_certify_engine_counts () =
  let e = Designs.Registry.find "accum" in
  let invariant = Expr.bool_ true in
  (match
     Bmc.check_safety ~certify:true ~design:e.Designs.Entry.design ~invariant
       ~depth:3 ()
   with
  | Bmc.Holds 3, _ -> ()
  | _ -> Alcotest.fail "true invariant must hold");
  (* And a violated invariant still certifies the UNSAT bounds before the
     violation. *)
  let acc = Rtl.reg_expr e.Designs.Entry.design "acc" in
  let invariant = Expr.eq acc (Expr.const_int ~width:(Expr.width acc) 0) in
  match
    Bmc.check_safety ~certify:true ~design:e.Designs.Entry.design ~invariant
      ~depth:8 ()
  with
  | Bmc.Violated _, _ -> ()
  | Bmc.Holds _, _ ->
      (* Reachable-state dependent; accept Holds but the run must not have
         raised Certification_failed to get here. *)
      ()
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

(* ---- shared outcome comparison ---- *)

let test_same_outcome_rejects_wrong_lanes () =
  let violated n =
    Bmc.Violated
      { Bmc.w_length = n; w_initial = Rtl.Smap.empty; w_inputs = [||]; w_trace = [] }
  in
  let unknown =
    Bmc.Unknown { Bmc.un_reason = Sat.Solver.Out_of_conflicts; un_bound = 2 }
  in
  let same = Fuzz.Oracle.same_outcome ~oracle:"probe" ~lane:"variant" in
  List.iter
    (fun (what, reference, got) ->
      match same reference got with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error msg ->
          let mentions sub =
            let n = String.length msg and m = String.length sub in
            let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
            go 0
          in
          if not (mentions "probe" && mentions "variant") then
            Alcotest.failf "%s: message %S does not name the oracle and lane" what msg)
    [
      ("Holds 3 vs Holds 4", Bmc.Holds 3, Bmc.Holds 4);
      ("Violated@3 vs Violated@4", violated 3, violated 4);
      ("Holds vs Violated", Bmc.Holds 3, violated 3);
      ("Unknown vs Holds", unknown, Bmc.Holds 3);
    ];
  (* And the agreeing lanes pass. *)
  Alcotest.(check bool) "same bound" true (same (Bmc.Holds 3) (Bmc.Holds 3) = Ok ());
  Alcotest.(check bool) "same cex length" true (same (violated 4) (violated 4) = Ok ())

(* ---- fault-injection oracle ---- *)

let test_fault_injection_oracle () =
  (* On the healthy stack the oracle must hold across seeds: faults only
     ever yield Unknown, never a flipped verdict, and escalation recovers
     the reference verdict from a starved budget. *)
  for seed = 0 to 4 do
    let rand = Random.State.make [| 0xFA; seed |] in
    let d = Fuzz.Gen.design rand in
    match Fuzz.Oracle.fault_injection ~rate:0.05 ~depth:3 rand d with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "seed %d: %s\n%s" seed msg (Fuzz.design_to_string d)
  done

let test_fault_injection_oracle_certified () =
  let rand = Random.State.make [| 0xFA; 99 |] in
  let d = Fuzz.Gen.design rand in
  match Fuzz.Oracle.fault_injection ~cert:true ~rate:0.05 ~depth:3 rand d with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "certified run: %s" msg

let suite =
  [
    ("fuzz.gen_well_typed", `Quick, test_gen_well_typed);
    ("fuzz.gen_true_invariant", `Quick, test_gen_true_invariant_is_true);
    ("fuzz.oracles_agree", `Slow, test_oracles_agree);
    ("fuzz.oracles_agree_certified", `Slow, test_oracles_agree_certified);
    ("fuzz.same_outcome_rejects", `Quick, test_same_outcome_rejects_wrong_lanes);
    ("fuzz.fault_injection", `Slow, test_fault_injection_oracle);
    ("fuzz.fault_injection_certified", `Slow, test_fault_injection_oracle_certified);
    ("fuzz.dimacs_certified", `Quick, test_dimacs_fuzz_certified);
    ("fuzz.shrink_converges", `Quick, test_shrink_converges);
    ("fuzz.shrink_no_op", `Quick, test_shrink_keeps_failure);
    ("drat.trivial", `Quick, test_drat_trivial_refutation);
    ("drat.duplicate_literals", `Quick, test_drat_duplicate_literals);
    ("drat.tautology_input", `Quick, test_drat_tautology_input);
    ("drat.rejects_non_rup", `Quick, test_drat_rejects_non_rup);
    ("drat.rejects_missing_refutation", `Quick, test_drat_rejects_missing_refutation);
    ("drat.delete_then_use", `Quick, test_drat_delete_then_use_rejected);
    ("drat.assumptions", `Quick, test_drat_assumptions);
    ("drat.certificate_accepted", `Quick, test_certificate_accepted);
    ("drat.corrupted_rejected", `Quick, test_corrupted_certificate_rejected);
    ("drat.serialization", `Quick, test_proof_serialization);
    ("bmc.certify_holds", `Quick, test_bmc_certify_holds);
    ("bmc.certify_counts", `Quick, test_bmc_certify_engine_counts);
  ]

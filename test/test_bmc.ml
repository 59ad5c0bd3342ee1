(* BMC tests: safety checks on small designs with known shortest
   counterexamples, witness replay correctness, symbolic initial states,
   and agreement between the default engine and one on fresh solvers. *)

module Bv = Bitvec

let counter () =
  let count = Expr.var "count" 4 and enable = Expr.var "enable" 1 in
  Rtl.make ~name:"counter"
    ~inputs:[ { Expr.name = "enable"; width = 1 } ]
    ~registers:
      [
        {
          Rtl.reg = { Expr.name = "count"; width = 4 };
          init = Bv.zero 4;
          next = Expr.ite enable (Expr.add count (Expr.const_int ~width:4 1)) count;
        };
      ]
    ~outputs:[ ("value", count) ]

let count_ne n = Expr.ne (Expr.var "count" 4) (Expr.const_int ~width:4 n)

let test_holds_within_bound () =
  (* count cannot reach 10 in fewer than 10 steps. *)
  match Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne 10) ~depth:10 () with
  | Bmc.Holds 10, _ -> ()
  | Bmc.Violated w, _ ->
      Alcotest.failf "unexpected counterexample of length %d" w.Bmc.w_length
  | Bmc.Holds n, _ -> Alcotest.failf "wrong bound %d" n
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_violated_at_exact_depth () =
  match Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne 10) ~depth:12 () with
  | Bmc.Violated w, _ ->
      (* Shortest counterexample: 10 enabled cycles, failing at cycle 10. *)
      Alcotest.(check int) "length" 11 w.Bmc.w_length;
      let last = List.nth w.Bmc.w_trace (w.Bmc.w_length - 1) in
      Alcotest.(check int) "count is 10 at the failure cycle" 10
        (Bv.to_int (Rtl.Smap.find "count" last.Rtl.t_state))
  | Bmc.Holds n, _ -> Alcotest.failf "holds up to %d but should fail" n
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_witness_replay_consistent () =
  match Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne 7) ~depth:12 () with
  | Bmc.Violated w, _ ->
      (* Replay must show exactly w_length steps and the concrete violation. *)
      Alcotest.(check int) "trace length" w.Bmc.w_length (List.length w.Bmc.w_trace);
      let last = List.nth w.Bmc.w_trace (w.Bmc.w_length - 1) in
      let env v =
        match Rtl.Smap.find_opt v.Expr.name last.Rtl.t_state with
        | Some bv -> bv
        | None -> Rtl.Smap.find v.Expr.name last.Rtl.t_inputs
      in
      Alcotest.(check bool) "invariant concretely false" false
        (Bv.to_bool (Expr.eval env (count_ne 7)))
  | Bmc.Holds _, _ -> Alcotest.fail "expected violation"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_assumes_block_counterexample () =
  (* Under the assumption that enable is never asserted, the counter stays
     at 0 and the invariant holds at any depth. *)
  let assumes = [ Expr.eq (Expr.var "enable" 1) (Expr.const_int ~width:1 0) ] in
  match
    Bmc.check_safety ~assumes ~design:(counter ()) ~invariant:(count_ne 3) ~depth:20 ()
  with
  | Bmc.Holds n, _ -> Alcotest.(check int) "full depth" 20 n
  | Bmc.Violated _, _ -> Alcotest.fail "assumption was ignored"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_invariant_over_outputs () =
  (* Properties may mention outputs by name. *)
  let inv = Expr.ne (Expr.var "value" 4) (Expr.const_int ~width:4 2) in
  match Bmc.check_safety ~design:(counter ()) ~invariant:inv ~depth:5 () with
  | Bmc.Violated w, _ -> Alcotest.(check int) "length" 3 w.Bmc.w_length
  | Bmc.Holds _, _ -> Alcotest.fail "expected violation via output"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_symbolic_init () =
  (* With a free initial state the invariant count <> 5 fails immediately. *)
  match
    Bmc.check_safety ~symbolic_init:true ~design:(counter ()) ~invariant:(count_ne 5)
      ~depth:3 ()
  with
  | Bmc.Violated w, _ ->
      Alcotest.(check int) "fails at frame 0" 1 w.Bmc.w_length;
      Alcotest.(check int) "initial state is 5" 5
        (Bv.to_int (Rtl.Smap.find "count" w.Bmc.w_initial))
  | Bmc.Holds _, _ -> Alcotest.fail "expected violation from symbolic init"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_mono_agrees_with_incremental () =
  List.iter
    (fun (inv, depth) ->
      let r1, _ = Bmc.check_safety ~design:(counter ()) ~invariant:inv ~depth () in
      let r2, _ = Bmc.check_safety ~mono:true ~design:(counter ()) ~invariant:inv ~depth () in
      match (r1, r2) with
      | Bmc.Holds a, Bmc.Holds b -> Alcotest.(check int) "both hold" a b
      | Bmc.Violated a, Bmc.Violated b ->
          Alcotest.(check int) "same length" a.Bmc.w_length b.Bmc.w_length
      | _ -> Alcotest.fail "engines disagree")
    [ (count_ne 3, 8); (count_ne 9, 8); (count_ne 0, 4) ]

let test_depth_zero () =
  match Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne 0) ~depth:0 () with
  | Bmc.Holds 0, _ -> ()
  | _ -> Alcotest.fail "depth 0 must hold vacuously"

let test_immediate_violation () =
  (* count starts at 0, so count <> 0 fails at frame 0. *)
  match Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne 0) ~depth:4 () with
  | Bmc.Violated w, _ -> Alcotest.(check int) "length 1" 1 w.Bmc.w_length
  | Bmc.Holds _, _ -> Alcotest.fail "expected immediate violation"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

(* A two-register design with cross-register invariant: a shift register
   pair where r2 follows r1 delayed by one cycle. *)
let follower () =
  let d = Expr.var "d" 8 in
  let r1 = Expr.var "r1" 8 and r2 = Expr.var "r2" 8 in
  Rtl.make ~name:"follower"
    ~inputs:[ { Expr.name = "d"; width = 8 } ]
    ~registers:
      [
        { Rtl.reg = { Expr.name = "r1"; width = 8 }; init = Bv.zero 8; next = d };
        { Rtl.reg = { Expr.name = "r2"; width = 8 }; init = Bv.zero 8; next = r1 };
      ]
    ~outputs:[ ("q", r2) ]

let test_relational_invariant_holds () =
  (* r2 at cycle k equals r1 at cycle k-1; an always-true relational fact:
     if r1 = 0 and the input stays 0, r2 stays 0... instead check a real
     inductive fact visible per cycle: nothing relates them combinationally,
     so check a property that does hold: q is always the value d had two
     cycles earlier — encoded via a bounded check with assumes pinning d. *)
  let assumes = [ Expr.eq (Expr.var "d" 8) (Expr.const_int ~width:8 0x5A) ] in
  (* After 2 cycles q must be 0x5A forever; check the weaker safety fact
     q = 0x5A or q = 0 (the reset value flushing through). *)
  let q = Expr.var "q" 8 in
  let inv =
    Expr.or_
      (Expr.eq q (Expr.const_int ~width:8 0x5A))
      (Expr.eq q (Expr.const_int ~width:8 0))
  in
  match Bmc.check_safety ~assumes ~design:(follower ()) ~invariant:inv ~depth:8 () with
  | Bmc.Holds n, _ -> Alcotest.(check int) "full depth" 8 n
  | Bmc.Violated _, _ -> Alcotest.fail "pipeline flush property must hold"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

let test_follower_violation_found () =
  let q = Expr.var "q" 8 in
  let inv = Expr.ne q (Expr.const_int ~width:8 0x77) in
  match Bmc.check_safety ~design:(follower ()) ~invariant:inv ~depth:5 () with
  | Bmc.Violated w, _ ->
      Alcotest.(check int) "needs 3 cycles" 3 w.Bmc.w_length;
      let first = List.hd w.Bmc.w_trace in
      Alcotest.(check int) "input chosen by solver" 0x77
        (Bv.to_int (Rtl.Smap.find "d" first.Rtl.t_inputs))
  | Bmc.Holds _, _ -> Alcotest.fail "expected violation"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

(* Regression for witness extraction on designs with many input ports over
   many frames (the extraction path is per-port-per-frame; it used to rebuild
   the full input-allocation list for every lookup). The assumes pin every
   port to a distinct constant, so the witness input valuation is fully
   determined and any extraction bug shows up as a changed witness. *)
let many_inputs_design n_ports =
  let port i = Printf.sprintf "d%d" i in
  let cnt = Expr.var "cnt" 8 in
  let sum =
    List.fold_left
      (fun acc i -> Expr.add acc (Expr.var (port i) 8))
      cnt
      (List.init n_ports (fun i -> i))
  in
  Rtl.make ~name:"many_inputs"
    ~inputs:(List.init n_ports (fun i -> { Expr.name = port i; width = 8 }))
    ~registers:[ { Rtl.reg = { Expr.name = "cnt"; width = 8 }; init = Bv.zero 8; next = sum } ]
    ~outputs:[ ("total", cnt) ]

let test_witness_many_inputs_many_frames () =
  let n_ports = 10 in
  let design = many_inputs_design n_ports in
  let assumes =
    List.init n_ports (fun i ->
        Expr.eq (Expr.var (Printf.sprintf "d%d" i) 8) (Expr.const_int ~width:8 (i + 1)))
  in
  (* Each cycle adds 1 + 2 + ... + 10 = 55; cnt = 55k mod 256 reaches 74 at
     k = 6, so the shortest counterexample has 7 frames. *)
  let inv = Expr.ne (Expr.var "cnt" 8) (Expr.const_int ~width:8 74) in
  match Bmc.check_safety ~assumes ~design ~invariant:inv ~depth:10 () with
  | Bmc.Holds n, _ -> Alcotest.failf "holds up to %d but should fail" n
  | Bmc.Violated w, _ ->
      Alcotest.(check int) "length" 7 w.Bmc.w_length;
      Array.iteri
        (fun frame valuation ->
          for i = 0 to n_ports - 1 do
            Alcotest.(check int)
              (Printf.sprintf "d%d at frame %d" i frame)
              (i + 1)
              (Bv.to_int (Rtl.Smap.find (Printf.sprintf "d%d" i) valuation))
          done)
        w.Bmc.w_inputs;
      let last = List.nth w.Bmc.w_trace (w.Bmc.w_length - 1) in
      Alcotest.(check int) "cnt is 74 at the failure cycle" 74
        (Bv.to_int (Rtl.Smap.find "cnt" last.Rtl.t_state))
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

(* ---- formula-shrinking pipeline ---- *)

(* Counter plus logic that is irrelevant to the invariant: a register fed
   by its own input, and an output over it. The lazy unroller never blasts
   either. *)
let counter_with_noise () =
  let count = Expr.var "count" 4 and enable = Expr.var "enable" 1 in
  let junk = Expr.var "junk" 4 and noise = Expr.var "noise" 4 in
  Rtl.make ~name:"noisy-counter"
    ~inputs:[ { Expr.name = "enable"; width = 1 }; { Expr.name = "noise"; width = 4 } ]
    ~registers:
      [
        {
          Rtl.reg = { Expr.name = "count"; width = 4 };
          init = Bv.zero 4;
          next = Expr.ite enable (Expr.add count (Expr.const_int ~width:4 1)) count;
        };
        {
          Rtl.reg = { Expr.name = "junk"; width = 4 };
          init = Bv.zero 4;
          next = Expr.add junk noise;
        };
      ]
    ~outputs:[ ("value", count); ("junk_out", junk) ]

let stage_configs =
  [
    ("off", Bmc.no_simplify);
    ("rewrite", { Bmc.no_simplify with Bmc.sc_rewrite = true });
    ("pg", { Bmc.no_simplify with Bmc.sc_pg = true });
    ("cnf", { Bmc.no_simplify with Bmc.sc_cnf = true });
    ("all", Bmc.default_simplify);
  ]

(* Every pipeline stage preserves the verdict (and the counterexample
   length), on both a violated and a held instance. *)
let test_pipeline_stages_agree () =
  List.iter
    (fun (name, simplify) ->
      (match
         Bmc.check_safety ~simplify ~design:(counter_with_noise ())
           ~invariant:(count_ne 5) ~depth:10 ()
       with
      | Bmc.Violated w, _ -> Alcotest.(check int) (name ^ ": cex length") 6 w.Bmc.w_length
      | Bmc.Holds n, _ -> Alcotest.failf "%s: holds up to %d but should fail" name n
      | Bmc.Unknown _, _ -> Alcotest.failf "%s: unexpected unknown" name);
      match
        Bmc.check_safety ~simplify ~design:(counter_with_noise ())
          ~invariant:(count_ne 12) ~depth:8 ()
      with
      | Bmc.Holds 8, _ -> ()
      | Bmc.Holds n, _ -> Alcotest.failf "%s: wrong bound %d" name n
      | Bmc.Violated w, _ ->
          Alcotest.failf "%s: unexpected counterexample of length %d" name w.Bmc.w_length
      | Bmc.Unknown _, _ -> Alcotest.failf "%s: unexpected unknown" name)
    stage_configs

(* The unroller blasts a register only when something reads it, and the
   emitter sends only the nodes an assert or assumption reaches, so the
   noise register and input never reach the solver: each check on the
   noisy counter emits the same clauses and takes the same conflicts as on
   the plain counter, on both solving paths. The witness is still
   simulated on the whole design, so its trace shows the noise register. *)
let test_lazy_unrolling_is_the_cone () =
  let run ~mono design invariant depth =
    let captured = ref None in
    let outcome, stats =
      Bmc.check_safety ~mono
        ~stats:(fun s -> captured := Some s)
        ~design ~invariant ~depth ()
    in
    match !captured with
    | None -> Alcotest.fail "stats callback never called"
    | Some s -> (outcome, s.Bmc.Engine.ss_clauses_emitted, stats.Sat.Solver.conflicts)
  in
  let verdict = function
    | Bmc.Holds n -> Printf.sprintf "holds@%d" n
    | Bmc.Violated w -> Printf.sprintf "violated@%d" w.Bmc.w_length
    | Bmc.Unknown _ -> "unknown"
  in
  List.iter
    (fun mono ->
      List.iter
        (fun (n, depth, expected) ->
          let what = Printf.sprintf "count_ne %d, depth %d, mono %b" n depth mono in
          let plain, plain_cl, plain_conf = run ~mono (counter ()) (count_ne n) depth in
          let noisy, noisy_cl, noisy_conf =
            run ~mono (counter_with_noise ()) (count_ne n) depth
          in
          Alcotest.(check string) (what ^ ": plain verdict") expected (verdict plain);
          Alcotest.(check string) (what ^ ": noisy verdict") expected (verdict noisy);
          Alcotest.(check int) (what ^ ": clauses emitted") plain_cl noisy_cl;
          Alcotest.(check int) (what ^ ": conflicts") plain_conf noisy_conf;
          match noisy with
          | Bmc.Violated w ->
              let last = List.nth w.Bmc.w_trace (w.Bmc.w_length - 1) in
              Alcotest.(check bool) (what ^ ": trace shows junk") true
                (Rtl.Smap.mem "junk" last.Rtl.t_state)
          | Bmc.Holds _ | Bmc.Unknown _ -> ())
        [ (5, 10, "violated@6"); (12, 8, "holds@8") ])
    [ false; true ]

(* Fresh solvers from the first query, with the full pipeline (BVE
   live), agree with the unsimplified default engine. *)
let test_mono_pipeline_agrees () =
  List.iter
    (fun depth ->
      let inv = count_ne 6 in
      let r1, _ =
        Bmc.check_safety ~simplify:Bmc.no_simplify ~design:(counter_with_noise ())
          ~invariant:inv ~depth ()
      in
      let r2, _ =
        Bmc.check_safety ~simplify:Bmc.default_simplify ~mono:true
          ~design:(counter_with_noise ()) ~invariant:inv ~depth ()
      in
      match (r1, r2) with
      | Bmc.Holds a, Bmc.Holds b -> Alcotest.(check int) "same bound" a b
      | Bmc.Violated a, Bmc.Violated b ->
          Alcotest.(check int) "same cex length" a.Bmc.w_length b.Bmc.w_length
      | _ -> Alcotest.fail "fresh/default verdicts differ")
    [ 3; 6; 9 ]

(* The stats record actually measures the pipeline: PG emits fewer clauses
   than plain Tseitin, and fresh-solver preprocessing eliminates variables. *)
let test_simp_stats_sanity () =
  let captured = ref None in
  (match
     Bmc.check_safety ~mono:true ~stats:(fun s -> captured := Some s)
       ~design:(counter_with_noise ()) ~invariant:(count_ne 12) ~depth:6 ()
   with
  | Bmc.Holds 6, _ -> ()
  | _ -> Alcotest.fail "expected Holds 6");
  match !captured with
  | None -> Alcotest.fail "stats callback never called"
  | Some s ->
      Alcotest.(check bool) "queries counted" true (s.Bmc.Engine.ss_queries > 0);
      Alcotest.(check bool) "clauses emitted" true (s.Bmc.Engine.ss_clauses_emitted > 0);
      Alcotest.(check bool) "PG saves clauses" true
        (s.Bmc.Engine.ss_clauses_emitted < s.Bmc.Engine.ss_clauses_plain);
      Alcotest.(check bool) "BVE eliminated variables" true
        (s.Bmc.Engine.ss_pre.Sat.Solver.pre_eliminated > 0)

(* The engine's search counters cover every solver it used, not only the
   live one: on fresh solvers its conflicts equal the per-solve sum the
   solver publishes as the sat.conflicts metric. Propagations also happen
   outside [solve] (level-0 units), so that metric is only a lower bound. *)
let test_stats_span_fresh_solvers () =
  let e = Designs.Registry.find "accum" in
  let assumes =
    [
      Expr.ult (Expr.var "x" 4) (Expr.const_int ~width:4 2);
      Expr.eq (Expr.var "cmd" 1) (Expr.const_int ~width:1 0);
    ]
  in
  let invariant = Expr.ne (Expr.var "acc" 4) (Expr.const_int ~width:4 15) in
  let was_on = Obs.on () in
  Obs.enable ();
  Obs.Metrics.reset ();
  let outcome, stats =
    Fun.protect
      ~finally:(fun () -> if not was_on then Obs.disable ())
      (fun () ->
        Bmc.check_safety ~assumes ~mono:true ~design:e.Designs.Entry.design ~invariant
          ~depth:12 ())
  in
  let metric name =
    match List.assoc_opt name (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> Alcotest.failf "no %s counter" name
  in
  let solves = metric "sat.solves" and conflicts = metric "sat.conflicts" in
  let propagations = metric "sat.propagations" in
  Obs.Metrics.reset ();
  (match outcome with
  | Bmc.Holds 12 -> ()
  | _ -> Alcotest.fail "expected Holds 12");
  Alcotest.(check int) "one solver per bound" 12 solves;
  Alcotest.(check int) "conflicts summed" conflicts stats.Sat.Solver.conflicts;
  Alcotest.(check bool) "propagations summed" true
    (stats.Sat.Solver.propagations >= propagations)

(* Property: the incremental engine reports the *shortest* counterexample.
   For the enabled counter, the shortest trace reaching value n has exactly
   n + 1 cycles (n increments plus the violating cycle). *)
let prop_shortest_cex =
  QCheck.Test.make ~count:12 ~name:"BMC counterexamples are shortest"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 9))
    (fun n ->
      match
        Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne n) ~depth:(n + 3) ()
      with
      | Bmc.Violated w, _ -> w.Bmc.w_length = n + 1
      | Bmc.Holds _, _ | Bmc.Unknown _, _ -> false)

(* ------------------------------------------------------------------ *)
(* Resource governance: exhausted budgets yield Unknown outcomes.       *)

let test_unknown_under_budget () =
  (* A cap of 0 conflicts fires at the first poll of every query, before
     any propagation, so the check can only ever produce Unknown. *)
  let budget = Sat.Solver.budget ~conflicts:0 () in
  match
    Bmc.check_safety ~budget ~design:(counter ()) ~invariant:(count_ne 10) ~depth:10 ()
  with
  | Bmc.Unknown u, _ ->
      Alcotest.(check string) "reason" "conflict budget exhausted"
        (Sat.Solver.reason_to_string u.Bmc.un_reason)
  | Bmc.Holds _, _ | Bmc.Violated _, _ -> Alcotest.fail "conflict budget did not fire"

(* Two counters advancing under independent enables: enough arithmetic
   structure for the solver to learn real clauses, with an invariant that
   holds at every bound (a + b grows by at most 2 per cycle, so within
   depth d the sum stays under 2d + 1). Every bound is UNSAT, so a
   certifying run DRAT-checks all sixteen refutations. *)
let twin_counter () =
  let a = Expr.var "a" 6 and b = Expr.var "b" 6 in
  let ea = Expr.var "ea" 1 and eb = Expr.var "eb" 1 in
  let one = Expr.const_int ~width:6 1 in
  Rtl.make ~name:"twin_counter"
    ~inputs:[ { Expr.name = "ea"; width = 1 }; { Expr.name = "eb"; width = 1 } ]
    ~registers:
      [
        {
          Rtl.reg = { Expr.name = "a"; width = 6 };
          init = Bv.zero 6;
          next = Expr.ite ea (Expr.add a one) a;
        };
        {
          Rtl.reg = { Expr.name = "b"; width = 6 };
          init = Bv.zero 6;
          next = Expr.ite eb (Expr.add b one) b;
        };
      ]
    ~outputs:[ ("sum", Expr.add a b) ]

let test_certified_twin_counter () =
  let invariant =
    Expr.ne (Expr.add (Expr.var "a" 6) (Expr.var "b" 6)) (Expr.const_int ~width:6 34)
  in
  match Bmc.check_safety ~certify:true ~design:(twin_counter ()) ~invariant ~depth:16 () with
  | Bmc.Holds 16, _ -> ()
  | Bmc.Holds n, _ -> Alcotest.failf "wrong bound %d" n
  | Bmc.Violated w, _ ->
      Alcotest.failf "unexpected counterexample of length %d" w.Bmc.w_length
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"
  | exception Bmc.Certification_failed msg ->
      Alcotest.failf "DRAT certificate rejected: %s" msg

let suite =
  [
    ("bmc.holds_within_bound", `Quick, test_holds_within_bound);
    ("bmc.violated_at_depth", `Quick, test_violated_at_exact_depth);
    ("bmc.witness_replay", `Quick, test_witness_replay_consistent);
    ("bmc.assumes", `Quick, test_assumes_block_counterexample);
    ("bmc.output_invariant", `Quick, test_invariant_over_outputs);
    ("bmc.symbolic_init", `Quick, test_symbolic_init);
    ("bmc.mono_agrees", `Quick, test_mono_agrees_with_incremental);
    ("bmc.depth_zero", `Quick, test_depth_zero);
    ("bmc.immediate_violation", `Quick, test_immediate_violation);
    ("bmc.relational_holds", `Quick, test_relational_invariant_holds);
    ("bmc.follower_violation", `Quick, test_follower_violation_found);
    ("bmc.witness_many_inputs", `Quick, test_witness_many_inputs_many_frames);
    ("bmc.pipeline_stages_agree", `Quick, test_pipeline_stages_agree);
    ("bmc.lazy_unrolling_is_the_cone", `Quick, test_lazy_unrolling_is_the_cone);
    ("bmc.mono_pipeline_agrees", `Quick, test_mono_pipeline_agrees);
    ("bmc.simp_stats", `Quick, test_simp_stats_sanity);
    ("bmc.stats_span_fresh_solvers", `Quick, test_stats_span_fresh_solvers);
    ("bmc.certified_twin_counter", `Quick, test_certified_twin_counter);
    ("bmc.unknown_under_budget", `Quick, test_unknown_under_budget);
    Qc.to_alcotest prop_shortest_cex;
  ]

(* BMC tests: safety checks on small designs with known shortest
   counterexamples, witness replay correctness, symbolic initial states,
   and agreement between the incremental and monolithic engines. *)

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
   by its own input, and an output over it. COI must drop both. *)
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
    ("coi", { Bmc.no_simplify with Bmc.sc_coi = true });
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

(* COI reduction drops the irrelevant register and output, and the
   reconstructed witness still speaks about the original design. *)
let test_coi_reduce () =
  let design = counter_with_noise () in
  let reduced, stats = Bmc.Coi.reduce design ~props:[ count_ne 5 ] in
  Alcotest.(check int) "regs before" 2 stats.Bmc.Coi.coi_regs_before;
  Alcotest.(check int) "regs after" 1 stats.Bmc.Coi.coi_regs_after;
  Alcotest.(check int) "outputs after" 0 stats.Bmc.Coi.coi_outputs_after;
  Alcotest.(check int) "inputs all kept" 2 (List.length reduced.Rtl.inputs);
  match
    Bmc.check_safety ~simplify:Bmc.default_simplify ~design ~invariant:(count_ne 5)
      ~depth:10 ()
  with
  | Bmc.Violated w, _ ->
      let last = List.nth w.Bmc.w_trace (w.Bmc.w_length - 1) in
      Alcotest.(check bool) "witness trace covers the dropped register" true
        (Rtl.Smap.mem "junk" last.Rtl.t_state)
  | Bmc.Holds _, _ -> Alcotest.fail "expected violation"
  | Bmc.Unknown _, _ -> Alcotest.fail "unexpected unknown"

(* The COI-reduced run is the same CNF lazily: witnesses must be
   bit-identical to the unsimplified baseline, not just verdict-equal. *)
let test_coi_witness_bit_identical () =
  let run simplify =
    match
      Bmc.check_safety ~simplify ~design:(counter_with_noise ()) ~invariant:(count_ne 5)
        ~depth:10 ()
    with
    | Bmc.Violated w, _ -> w
    | Bmc.Holds _, _ | Bmc.Unknown _, _ -> Alcotest.fail "expected violation"
  in
  let base = run Bmc.no_simplify in
  let coi = run { Bmc.no_simplify with Bmc.sc_coi = true } in
  Alcotest.(check int) "same length" base.Bmc.w_length coi.Bmc.w_length;
  Alcotest.(check bool) "same initial state" true
    (Rtl.Smap.equal Bitvec.equal base.Bmc.w_initial coi.Bmc.w_initial);
  Alcotest.(check bool) "same inputs, every frame" true
    (Array.for_all2
       (Rtl.Smap.equal Bitvec.equal)
       base.Bmc.w_inputs coi.Bmc.w_inputs)

(* Monolithic mode with the full pipeline (compaction + BVE live) agrees
   with the unsimplified incremental engine. *)
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
      | _ -> Alcotest.fail "mono/incremental verdicts differ")
    [ 3; 6; 9 ]

(* The stats record actually measures the pipeline: PG emits fewer clauses
   than plain Tseitin, and mono-mode preprocessing eliminates variables. *)
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
      Alcotest.(check bool) "COI figures recorded" true
        (s.Bmc.Engine.ss_coi_regs_before = 2 && s.Bmc.Engine.ss_coi_regs_after = 1);
      Alcotest.(check bool) "BVE eliminated variables" true
        (s.Bmc.Engine.ss_pre.Sat.Solver.pre_eliminated > 0)

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
(* Resource governance: Unknown outcomes and the escalation ladder.     *)

let test_unknown_under_permanent_fault () =
  (* A hook that cancels every query can only ever produce Unknown. *)
  let limits = Bmc.limits ~fault:(fun _ -> Some Sat.Solver.Fault_cancel) () in
  match
    Bmc.check_safety ~limits ~design:(counter ()) ~invariant:(count_ne 10) ~depth:10 ()
  with
  | Bmc.Unknown u, _ ->
      Alcotest.(check string) "reason" "cancelled"
        (Sat.Solver.reason_to_string u.Bmc.un_reason)
  | Bmc.Holds _, _ | Bmc.Violated _, _ -> Alcotest.fail "fault hook did not fire"

let test_escalate_converges () =
  (* A runner that gives up twice and then decides: the ladder must retry
     with grown budgets and stop at the first decided attempt. *)
  let starve = ref 2 in
  let result, attempts =
    Bmc.Escalate.run
      ~limits:(Bmc.limits ~budget:(Sat.Solver.budget ~conflicts:4 ()) ())
      ~simplify:Bmc.default_simplify ~mono:false
      ~unknown_of:(function `Unknown -> Some "gave up" | `Decided -> None)
      (fun _cfg ->
        if !starve > 0 then begin
          decr starve;
          `Unknown
        end
        else `Decided)
  in
  (match result with
  | `Decided -> ()
  | `Unknown -> Alcotest.fail "never decided");
  Alcotest.(check int) "three attempts" 3 (List.length attempts);
  let caps =
    List.map
      (fun a ->
        match a.Bmc.Escalate.at_budget.Sat.Solver.max_conflicts with
        | Some c -> c
        | None -> max_int)
      attempts
  in
  (match caps with
  | [ a; b; c ] -> Alcotest.(check bool) "budgets grow" true (a < b && b < c)
  | _ -> Alcotest.fail "expected three budgets");
  match List.rev attempts with
  | last :: earlier ->
      Alcotest.(check bool) "last attempt decided" true
        (last.Bmc.Escalate.at_reason = None);
      List.iter
        (fun a ->
          Alcotest.(check bool) "earlier attempts carry a reason" true
            (a.Bmc.Escalate.at_reason <> None))
        earlier
  | [] -> Alcotest.fail "no attempts logged"

let test_escalate_gives_up_at_max_attempts () =
  let calls = ref 0 in
  let (), attempts =
    Bmc.Escalate.run
      ~policy:{ Bmc.Escalate.default_policy with max_attempts = 3 }
      ~limits:(Bmc.limits ~budget:(Sat.Solver.budget ~conflicts:1 ()) ())
      ~simplify:Bmc.default_simplify ~mono:false
      ~unknown_of:(fun () -> Some "still unknown")
      (fun _ -> incr calls)
  in
  Alcotest.(check int) "capped attempts" 3 (List.length attempts);
  Alcotest.(check int) "runner called exactly that often" 3 !calls

let test_escalate_recovers_serial_verdict () =
  (* check_safety starved by a transient fault (first two queries cancel)
     converges to the unlimited run's verdict through the ladder. *)
  let reference =
    Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne 5) ~depth:8 ()
  in
  let remaining = ref 2 in
  let hook _ =
    if !remaining > 0 then begin
      decr remaining;
      Some Sat.Solver.Fault_cancel
    end
    else None
  in
  let (outcome, _), attempts =
    Bmc.Escalate.run
      ~limits:(Bmc.limits ~fault:hook ())
      ~simplify:Bmc.default_simplify ~mono:false
      ~unknown_of:(fun (o, _) ->
        match o with
        | Bmc.Unknown u -> Some (Sat.Solver.reason_to_string u.Bmc.un_reason)
        | Bmc.Holds _ | Bmc.Violated _ -> None)
      (fun cfg ->
        Bmc.check_safety ~limits:cfg.Bmc.Escalate.ec_limits
          ~simplify:cfg.Bmc.Escalate.ec_simplify ~design:(counter ())
          ~invariant:(count_ne 5) ~depth:8 ())
  in
  Alcotest.(check bool) "escalated at least once" true (List.length attempts >= 2);
  match (reference, outcome) with
  | (Bmc.Violated a, _), Bmc.Violated b ->
      Alcotest.(check int) "same witness length" a.Bmc.w_length b.Bmc.w_length
  | _ -> Alcotest.fail "escalation did not recover the serial verdict"

let test_escalate_racing_recovers_verdict () =
  (* The racing ladder runs its rungs concurrently instead of one after
     the other; the starved low rungs must not keep the grown rungs from
     deciding, and the decided verdict matches the unlimited run. *)
  let reference =
    Bmc.check_safety ~design:(counter ()) ~invariant:(count_ne 5) ~depth:8 ()
  in
  let (outcome, _), attempts =
    Bmc.Escalate.run_racing
      ~policy:{ Bmc.Escalate.default_policy with max_attempts = 4; growth = 32.0 }
      ~jobs:2
      ~limits:(Bmc.limits ~budget:(Sat.Solver.budget ~conflicts:1 ()) ())
      ~simplify:Bmc.default_simplify ~mono:false
      ~unknown_of:(fun (o, _) ->
        match o with
        | Bmc.Unknown u -> Some (Sat.Solver.reason_to_string u.Bmc.un_reason)
        | Bmc.Holds _ | Bmc.Violated _ -> None)
      (fun cfg ->
        Bmc.check_safety ~limits:cfg.Bmc.Escalate.ec_limits
          ~simplify:cfg.Bmc.Escalate.ec_simplify ~design:(counter ())
          ~invariant:(count_ne 5) ~depth:8 ())
  in
  Alcotest.(check bool) "attempt log non-empty" true (attempts <> []);
  match (reference, outcome) with
  | (Bmc.Violated a, _), Bmc.Violated b ->
      Alcotest.(check int) "same witness length" a.Bmc.w_length b.Bmc.w_length
  | _ -> Alcotest.fail "racing escalation did not recover the verdict"

let test_escalate_racing_all_unknown () =
  (* Every rung exhausts: the racing ladder must run all of them, log every
     attempt with its reason, and surface one of the Unknown results
     instead of raising or hanging. *)
  let calls = Atomic.make 0 in
  let (), attempts =
    Bmc.Escalate.run_racing
      ~policy:{ Bmc.Escalate.default_policy with max_attempts = 3 }
      ~jobs:3
      ~limits:(Bmc.limits ~budget:(Sat.Solver.budget ~conflicts:1 ()) ())
      ~simplify:Bmc.default_simplify ~mono:false
      ~unknown_of:(fun () -> Some "still unknown")
      (fun _cfg -> Atomic.incr calls)
  in
  Alcotest.(check int) "every rung ran" 3 (Atomic.get calls);
  Alcotest.(check int) "every rung logged" 3 (List.length attempts);
  List.iter
    (fun a ->
      Alcotest.(check bool) "every attempt carries a reason" true
        (a.Bmc.Escalate.at_reason <> None))
    attempts;
  (* Rung budgets grow with the index, exactly like the sequential ladder. *)
  let caps =
    List.filter_map
      (fun a ->
        Option.map
          (fun c -> (a.Bmc.Escalate.at_index, c))
          a.Bmc.Escalate.at_budget.Sat.Solver.max_conflicts)
      attempts
  in
  List.iter
    (fun (i, c) ->
      List.iter
        (fun (j, c') ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "budget grows from rung %d to %d" i j)
              true (c < c'))
        caps)
    caps

let test_escalate_racing_cancel_mid_rung () =
  (* The caller's cancel token is composed into every rung's fault hook:
     once a rung cancels it mid-run, the remaining rungs observe the
     cancellation instead of running to their grown budgets, and the
     ladder still returns with a complete attempt log. *)
  let outer = Sat.Solver.cancel_token () in
  let probe = Sat.Solver.stats (Sat.Solver.create ()) in
  let result, attempts =
    Bmc.Escalate.run_racing
      ~policy:{ Bmc.Escalate.default_policy with max_attempts = 3 }
      ~jobs:3
      ~limits:
        (Bmc.limits ~budget:(Sat.Solver.budget ~conflicts:1 ()) ~cancel:outer ())
      ~simplify:Bmc.default_simplify ~mono:false
      ~unknown_of:(fun o -> match o with `Unknown r -> Some r | `Decided -> None)
      (fun cfg ->
        (* The first rung to run cancels the shared outer token; the others
           see the cancellation through the composed fault hook. *)
        Sat.Solver.cancel outer;
        match cfg.Bmc.Escalate.ec_limits.Bmc.l_fault with
        | Some hook when hook probe = Some Sat.Solver.Fault_cancel ->
            `Unknown "cancelled"
        | Some _ | None -> `Decided)
  in
  (match result with
  | `Unknown r -> Alcotest.(check string) "cancelled surfaced" "cancelled" r
  | `Decided -> Alcotest.fail "a rung missed the outer cancellation");
  Alcotest.(check int) "every rung logged" 3 (List.length attempts);
  List.iter
    (fun a ->
      Alcotest.(check (option string))
        "every attempt reports cancellation" (Some "cancelled")
        a.Bmc.Escalate.at_reason)
    attempts

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
    ("bmc.coi_reduce", `Quick, test_coi_reduce);
    ("bmc.coi_witness_bit_identical", `Quick, test_coi_witness_bit_identical);
    ("bmc.mono_pipeline_agrees", `Quick, test_mono_pipeline_agrees);
    ("bmc.simp_stats", `Quick, test_simp_stats_sanity);
    ("bmc.certified_twin_counter", `Quick, test_certified_twin_counter);
    ("bmc.unknown_under_fault", `Quick, test_unknown_under_permanent_fault);
    ("bmc.escalate_converges", `Quick, test_escalate_converges);
    ("bmc.escalate_max_attempts", `Quick, test_escalate_gives_up_at_max_attempts);
    ("bmc.escalate_recovers", `Quick, test_escalate_recovers_serial_verdict);
    ("bmc.escalate_racing_recovers", `Quick, test_escalate_racing_recovers_verdict);
    ("bmc.escalate_racing_all_unknown", `Quick, test_escalate_racing_all_unknown);
    ("bmc.escalate_racing_cancel", `Quick, test_escalate_racing_cancel_mid_rung);
    QCheck_alcotest.to_alcotest prop_shortest_cex;
  ]

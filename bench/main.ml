(* Experiment harness: regenerates every table and figure of the
   (reconstructed) evaluation — see DESIGN.md section 4 and EXPERIMENTS.md
   for the experiment index and the mapping to the paper's claims.

   Usage:
     dune exec bench/main.exe                       # all experiments
     dune exec bench/main.exe -- t2 f1              # a subset, by id

   Experiment ids: t1 t2 t3 t4 t5 a1 a2 a3 s1 f1 f2 f3 micro.

   Every check runs cold: the harness keeps no journal. A journaled,
   resumable mutant matrix is `gqed campaign --checkpoint FILE`.

   --trace FILE / --metrics FILE / --trace-format ndjson|chrome enable
   the Obs layer for the whole run and write the merged span trace and
   metrics snapshot on completion. --trace/--metrics refuse to overwrite
   an existing file; pass --force to replace it.

   --designs d1,d2 restricts s1 to the named designs; --no-simplify runs
   the solver-cost experiments (t3, f1, a2) with the formula-shrinking
   pipeline off. s1 exits nonzero if any pipeline stage changes a verdict.

   --timeout SEC and --max-conflicts N put one fixed per-query budget on
   every check the harness runs; a check that exhausts it reports
   "unknown" instead of a verdict, and nothing retries it.

   The exit status is the run's one gate. Every experiment that compares
   a reference lane with a variant (s1, a2, t5) reports each
   disagreement as (experiment, cell, expected, got); the run lists them
   all at the end and exits 1 if there is any. Otherwise
   it exits 3 when some verdict stayed unknown under the budget, and 0.
   Machine-readable measurements live in bench/perf (see its README).

   Every task runs serially in one domain; parallel runs are `gqed
   campaign --workers N`. *)

module Entry = Designs.Entry
module Registry = Designs.Registry
module Checks = Qed.Checks
module Theory = Qed.Theory
module Report = Bench_report.Report
module Crv = Testbench.Crv
module Productivity = Testbench.Productivity

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Run-wide flags and the verdict gate.                                *)

(* --no-simplify: run the solver-cost experiments (t3, f1, a2) with the
   formula-shrinking pipeline disabled, for before/after comparisons. S1
   always runs both configurations and ignores this flag. *)
let pipeline = ref Bmc.default_simplify

(* --timeout / --max-conflicts build the per-query budget every governed
   check runs under. *)
let timeout : float option ref = ref None
let max_conflicts : int option ref = ref None
let unknown_verdicts = ref 0

(* --trace / --metrics / --trace-format enable the Obs layer for the whole
   run; --force permits overwriting existing trace and metrics files. *)
let obs_trace_path : string option ref = ref None
let obs_metrics_path : string option ref = ref None
let obs_format : [ `Ndjson | `Chrome ] ref = ref `Ndjson
let force_overwrite = ref false

(* The run's one verdict gate: every disagreement any experiment finds
   between a reference lane and a variant lands here, and a nonempty list
   fails the run (Report.exit_code). *)
let flips : Report.flip list ref = ref []

let disagree experiment cell ~expected ~got =
  flips := { Report.experiment; cell; expected; got } :: !flips

(* [true] when the two verdict strings match; a mismatch is recorded. *)
let agree experiment cell ~expected ~got =
  let same = String.equal expected got in
  if not same then disagree experiment cell ~expected ~got;
  same

let flip_count experiment =
  List.length (List.filter (fun f -> f.Report.experiment = experiment) !flips)

let bench_budget () = Sat.Solver.budget ?conflicts:!max_conflicts ?seconds:!timeout ()

(* Every experiment's checks funnel through here so the budget flags
   apply uniformly and exhausted budgets are counted for the exit code. *)
let check ?simplify technique design iface ~bound =
  let report =
    Checks.run ?simplify ~budget:(bench_budget ()) technique design iface ~bound
  in
  (match report.Checks.verdict with
  | Checks.Unknown _ -> incr unknown_verdicts
  | Checks.Pass _ | Checks.Fail _ -> ());
  report

(* [f] over [xs] in order, each result paired with its wall-clock
   seconds. *)
let map_timed f xs = List.map (fun x -> time (fun () -> f x)) xs

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let passed report =
  match report.Checks.verdict with
  | Checks.Pass _ -> true
  | Checks.Fail _ | Checks.Unknown _ -> false

(* Detection means a concrete counterexample: an Unknown is neither a pass
   nor a detection, so tables never credit a bug to an exhausted budget. *)
let failed report =
  match report.Checks.verdict with
  | Checks.Fail _ -> true
  | Checks.Pass _ | Checks.Unknown _ -> false

let cex_length report =
  match report.Checks.verdict with
  | Checks.Fail f -> Some f.Checks.witness.Bmc.w_length
  | Checks.Pass _ | Checks.Unknown _ -> None

let verdict_key report =
  match report.Checks.verdict with
  | Checks.Pass n -> Printf.sprintf "pass@%d" n
  | Checks.Fail f ->
      Printf.sprintf "fail:%s@%d"
        (Checks.failure_kind_to_string f.Checks.kind)
        f.Checks.witness.Bmc.w_length
  | Checks.Unknown u ->
      Printf.sprintf "unknown:%s@%d"
        (Sat.Solver.reason_to_string u.Checks.u_reason)
        u.Checks.u_bound

let short_verdict report =
  match report.Checks.verdict with
  | Checks.Pass _ -> "pass"
  | Checks.Fail _ -> "FAIL"
  | Checks.Unknown _ -> "unknown"

let class_name e = if e.Entry.interfering then "interfering" else "non-interf."

(* Shared mutant suites (one mutant per operator so the harness stays fast). *)
let mutant_suite e = Mutation.mutants ~per_operator_limit:1 e.Entry.design

let mutant_label m =
  Printf.sprintf "%s:%s"
    (Mutation.operator_to_string m.Mutation.operator)
    m.Mutation.target

(* A design's matrix row: the correct design, then its mutant suite. *)
let design_cases e =
  ("correct", e.Entry.design)
  :: List.map (fun (m, mutant) -> (mutant_label m, mutant)) (mutant_suite e)

(* ------------------------------------------------------------------ *)
(* T1: benchmark suite characteristics.                                 *)

let t1 () =
  header "T1  Benchmark suite characteristics";
  Printf.printf "%-12s %-12s %6s %6s %6s %8s %6s\n" "design" "class" "state" "input"
    "nodes" "mutants" "bound";
  List.iter
    (fun e ->
      let state_bits, input_bits, nodes = Rtl.stats e.Entry.design in
      Printf.printf "%-12s %-12s %6d %6d %6d %8d %6d\n" e.Entry.name (class_name e)
        state_bits input_bits nodes
        (List.length (mutant_suite e))
        e.Entry.rec_bound)
    Registry.all

(* ------------------------------------------------------------------ *)
(* T2: bug-detection matrix (the headline table).                       *)

type t2_row = {
  r_name : string;
  r_interfering : bool;
  r_mutants : int;
  r_crv : int;
  r_aqed : int;
  r_aqed_false_alarm : bool;
  r_gqed : int;
  r_gqed_cex : int list; (* witness lengths of G-QED detections *)
  r_crv_cycles : int list; (* cycles-to-detection of CRV detections *)
  r_escapes_caught : int; (* CRV missed, G-QED flow caught *)
}

(* One task per matrix cell (design x mutant) plus one false-alarm task per
   design; the rows are reassembled in registry order. *)
type t2_cell = {
  cc_crv_detected : bool;
  cc_crv_cycles : int;
  cc_aqed_hit : bool;
  cc_gqed_hit : bool;
  cc_gqed_cex : int option;
}

let t2_compute () =
  let tasks =
    List.concat_map
      (fun e ->
        `Alarm e :: List.map (fun (_m, mutant) -> `Cell (e, mutant)) (mutant_suite e))
      Registry.all
  in
  let results =
    List.map
      (function
        | `Alarm e ->
            Printf.eprintf "  [t2] %s...\n%!" e.Entry.name;
            (* Does A-QED false-alarm on the correct design? (It does, on
               every interfering design — the paper's motivation.) *)
            `Alarm_r
              (e.Entry.interfering
              && failed
                   (check Checks.Aqed e.Entry.design e.Entry.iface
                      ~bound:e.Entry.rec_bound))
        | `Cell (e, mutant) ->
            let bound = e.Entry.rec_bound in
            let crv =
              Crv.run ~design_override:mutant e
                { Crv.seed = 1; max_transactions = 500; idle_prob = 0.2 }
            in
            (* A-QED only applies to non-interfering designs; on interfering
               ones it already rejects the bug-free design. *)
            let aqed_hit =
              (not e.Entry.interfering)
              && failed (check Checks.Aqed mutant e.Entry.iface ~bound)
            in
            let g = check Checks.Gqed_flow mutant e.Entry.iface ~bound in
            `Cell_r
              {
                cc_crv_detected = crv.Crv.detected;
                cc_crv_cycles = crv.Crv.cycles_run;
                cc_aqed_hit = aqed_hit;
                cc_gqed_hit = failed g;
                cc_gqed_cex = cex_length g;
              })
      tasks
  in
  (* Tasks and results align by index; reassemble per-design rows. *)
  let combined = List.combine tasks results in
  List.map
    (fun e ->
      let aqed_false_alarm =
        List.exists
          (function `Alarm e', `Alarm_r fa -> e' == e && fa | _ -> false)
          combined
      in
      let cells =
        List.filter_map
          (function `Cell (e', _), `Cell_r c when e' == e -> Some c | _ -> None)
          combined
      in
      let count f = List.fold_left (fun acc c -> if f c then acc + 1 else acc) 0 cells in
      {
        r_name = e.Entry.name;
        r_interfering = e.Entry.interfering;
        r_mutants = List.length cells;
        r_crv = count (fun c -> c.cc_crv_detected);
        r_aqed = count (fun c -> c.cc_aqed_hit);
        r_aqed_false_alarm = aqed_false_alarm;
        r_gqed = count (fun c -> c.cc_gqed_hit);
        r_gqed_cex = List.filter_map (fun c -> c.cc_gqed_cex) cells;
        r_crv_cycles =
          List.filter_map
            (fun c -> if c.cc_crv_detected then Some c.cc_crv_cycles else None)
            cells;
        r_escapes_caught = count (fun c -> c.cc_gqed_hit && not c.cc_crv_detected);
      })
    Registry.all

let t2_rows = lazy (t2_compute ())

let t2 () =
  header "T2  Bug detection per design: CRV baseline vs A-QED vs G-QED";
  Printf.printf
    "(mutant suites: one mutant per operator; CRV budget 500 transactions)\n";
  Printf.printf "%-12s %8s %12s %14s %10s\n" "design" "mutants" "CRV" "A-QED" "G-QED flow";
  let rows = Lazy.force t2_rows in
  List.iter
    (fun row ->
      let aqed_str =
        if row.r_interfering then
          if row.r_aqed_false_alarm then "false-alarm" else "n/a"
        else Printf.sprintf "%d/%d" row.r_aqed row.r_mutants
      in
      Printf.printf "%-12s %8d %12s %14s %10s\n" row.r_name row.r_mutants
        (Printf.sprintf "%d/%d" row.r_crv row.r_mutants)
        aqed_str
        (Printf.sprintf "%d/%d" row.r_gqed row.r_mutants))
    rows;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Printf.printf "%-12s %8d %12d %14s %10d\n" "TOTAL"
    (total (fun r -> r.r_mutants))
    (total (fun r -> r.r_crv))
    "-"
    (total (fun r -> r.r_gqed));
  Printf.printf
    "\nBugs that ESCAPED the 500-transaction CRV flow but were caught by the\n\
     G-QED flow (the abstract's headline class): %d\n"
    (total (fun r -> r.r_escapes_caught));
  Printf.printf
    "\nNotes: A-QED false-alarms on every correct interfering design (its FC\n\
     property does not hold there), which is the paper's motivation for G-QED.\n\
     G-QED escapes are uniform bugs (e.g. stuck architectural registers) that\n\
     no self-consistency technique can see without a specification; the\n\
     golden-model CRV baseline catches those but pays for the model (T4).\n"

(* ------------------------------------------------------------------ *)
(* T3: G-QED cost on the correct designs (runtime, CNF, conflicts).     *)

let t3 () =
  header "T3  G-QED verification cost on correct designs";
  Printf.printf "%-12s %6s %9s %9s %10s %9s %8s\n" "design" "bound" "vars" "clauses"
    "conflicts" "verdict" "time(s)";
  let rows =
    map_timed
      (fun e ->
        (e, check ~simplify:!pipeline Checks.Gqed e.Entry.design e.Entry.iface
              ~bound:e.Entry.rec_bound))
      Registry.all
  in
  List.iter
    (fun ((e, report), dt) ->
      Printf.printf "%-12s %6d %9d %9d %10d %9s %8.2f\n%!" e.Entry.name
        e.Entry.rec_bound report.Checks.cnf_vars report.Checks.cnf_clauses
        report.Checks.sat_stats.Sat.Solver.conflicts (short_verdict report) dt)
    rows

(* ------------------------------------------------------------------ *)
(* T4: productivity model (the 370 -> 21 person-days claim).            *)

let t4 () =
  header "T4  Verification productivity (effort model; see EXPERIMENTS.md)";
  Printf.printf "%-12s %15s %15s %8s\n" "design" "conventional" "G-QED flow" "ratio";
  let mmio = Registry.find "mmio_engine" in
  let kappa = Productivity.scale_to_industrial mmio in
  List.iter
    (fun e ->
      let conv = (Productivity.conventional e).Productivity.total_days *. kappa in
      let gq = (Productivity.gqed e).Productivity.total_days *. kappa in
      Printf.printf "%-12s %12.0f pd %12.0f pd %7.1fx%s\n" e.Entry.name conv gq
        (conv /. gq)
        (if e.Entry.name = "mmio_engine" then "   <- case study (paper: 370 vs 21 pd, 18x)"
         else ""))
    Registry.all;
  Printf.printf "\nmmio_engine breakdown (model units):\n";
  Printf.printf "  conventional: %s\n"
    (Format.asprintf "%a" Productivity.pp_effort (Productivity.conventional mmio));
  Printf.printf "  G-QED flow:   %s\n"
    (Format.asprintf "%a" Productivity.pp_effort (Productivity.gqed mmio))

(* ------------------------------------------------------------------ *)
(* T5: soundness / completeness validation.                             *)

let t5 () =
  header "T5  Theory validation (bounded-exhaustive + per-witness soundness)";
  let small = [ "accum"; "maxtrack"; "rle"; "seqdet"; "histogram" ] in
  Printf.printf "%-12s %24s %8s %8s\n" "design" "brute-force table" "G-QED" "agree";
  List.map
    (fun name ->
      let e = Registry.find name in
      let alphabet =
        Theory.default_alphabet ~operand_values:[ 0; 1; 3 ] e.Entry.design e.Entry.iface
      in
      let table =
        Theory.transaction_table e.Entry.design e.Entry.iface ~alphabet ~depth:4
      in
      let report = check Checks.Gqed e.Entry.design e.Entry.iface ~bound:6 in
      (name, table, passed report))
    small
  |> List.iter (fun (name, table, pass) ->
         let table_str =
           match table with
           | `Deterministic n -> Printf.sprintf "deterministic (%d keys)" n
           | `Conflict _ -> "CONFLICT"
         in
         let expected =
           match table with `Deterministic _ -> "pass" | `Conflict _ -> "fail"
         in
         let got = if pass then "pass" else "fail" in
         Printf.printf "%-12s %24s %8s %8s\n%!" name table_str got
           (if agree "t5" name ~expected ~got then "yes" else "NO"));
  Printf.printf "\nInjected interference (hidden-output mutants):\n";
  List.map
    (fun name ->
      let e = Registry.find name in
      match
        List.find_map
          (fun (m, d) ->
            if m.Mutation.operator = Mutation.Hidden_output then Some d else None)
          (Mutation.mutants e.Entry.design)
      with
      | None -> None
      | Some mutant ->
          let alphabet =
            Theory.default_alphabet ~operand_values:[ 0; 1; 3 ] mutant e.Entry.iface
          in
          let table = Theory.transaction_table mutant e.Entry.iface ~alphabet ~depth:4 in
          let report = check Checks.Gqed mutant e.Entry.iface ~bound:6 in
          let genuine =
            match report.Checks.verdict with
            | Checks.Fail f -> Some (Theory.witness_is_genuine mutant e.Entry.iface f)
            | Checks.Pass _ | Checks.Unknown _ -> None
          in
          Some (name, table, passed report, genuine))
    small
  |> List.iter (function
       | None -> ()
       | Some (name, table, pass, genuine) ->
           if genuine = Some false then
             disagree "t5" (name ^ "/hidden_output") ~expected:"genuine witness"
               ~got:"spurious witness";
           Printf.printf "  %-12s brute-force=%-8s gqed=%-5s witness-genuine=%b\n%!" name
             (match table with `Conflict _ -> "conflict" | `Deterministic _ -> "det")
             (if pass then "pass" else "fail")
             (genuine = Some true));
  (* Every G-QED counterexample found on three mutant suites replays as a
     genuine inconsistency. One task per (design, mutant) pair. *)
  let pairs =
    List.concat_map
      (fun name ->
        let e = Registry.find name in
        List.map (fun (m, mutant) -> (e, mutant_label m, mutant)) (mutant_suite e))
      [ "accum"; "maxtrack"; "seqdet" ]
  in
  let verdicts =
    List.map
      (fun (e, _label, mutant) ->
        let report = check Checks.Gqed mutant e.Entry.iface ~bound:e.Entry.rec_bound in
        match report.Checks.verdict with
        | Checks.Fail f -> Some (Theory.witness_is_genuine mutant e.Entry.iface f)
        | Checks.Pass _ | Checks.Unknown _ -> None)
      pairs
  in
  List.iter2
    (fun (e, label, _) v ->
      if v = Some false then
        disagree "t5" (e.Entry.name ^ "/" ^ label) ~expected:"genuine witness"
          ~got:"spurious witness")
    pairs verdicts;
  let total = List.length (List.filter Option.is_some verdicts) in
  let genuine = List.length (List.filter (fun v -> v = Some true) verdicts) in
  Printf.printf "\nWitness soundness: %d/%d reported counterexamples replay as genuine\n"
    genuine total

(* ------------------------------------------------------------------ *)
(* A1: ablation — G-QED with vs without the post-state conjunct.        *)

let a1 () =
  header "A1  Ablation: post-state conjunct (hidden-state mutants of arch regs)";
  Printf.printf "%-12s %22s %22s\n" "design" "G-QED(full)" "G-QED(out-only)";
  List.map
    (fun e ->
      if not e.Entry.interfering then None
      else
        match
          List.find_map
            (fun (m, d) ->
              if
                m.Mutation.operator = Mutation.Hidden_state
                && List.exists
                     (fun r -> "next(" ^ r ^ ")" = m.Mutation.target)
                     e.Entry.iface.Qed.Iface.arch_regs
              then Some d
              else None)
            (Mutation.mutants e.Entry.design)
        with
        | None -> None
        | Some mutant ->
            let full = check Checks.Gqed mutant e.Entry.iface ~bound:e.Entry.rec_bound in
            let out_only =
              check Checks.Gqed_output_only mutant e.Entry.iface ~bound:e.Entry.rec_bound
            in
            Some (e.Entry.name, full, out_only))
    Registry.all
  |> List.iter (function
       | None -> ()
       | Some (name, full, out_only) ->
           let show r =
             match r.Checks.verdict with
             | Checks.Pass _ -> "missed"
             | Checks.Fail f -> "caught:" ^ Checks.failure_kind_to_string f.Checks.kind
             | Checks.Unknown _ -> "unknown"
           in
           Printf.printf "%-12s %22s %22s\n%!" name (show full) (show out_only))

(* ------------------------------------------------------------------ *)
(* A2: ablation — the default engine vs a fresh solver for every query.   *)

let a2 () =
  header "A2  Ablation: default engine vs fresh solver per query (accum reachability)";
  let e = Registry.find "accum" in
  let assumes =
    [
      Expr.ult (Expr.var "x" 4) (Expr.const_int ~width:4 2);
      Expr.eq (Expr.var "cmd" 1) (Expr.const_int ~width:1 0);
    ]
  in
  let invariant = Expr.ne (Expr.var "acc" 4) (Expr.const_int ~width:4 15) in
  Printf.printf "%-8s %14s %14s %10s\n" "depth" "default(s)" "fresh(s)" "result";
  List.iter
    (fun depth ->
      let (r1, _), t_default =
        time (fun () ->
            Bmc.check_safety ~assumes ~simplify:!pipeline ~budget:(bench_budget ())
              ~design:e.Entry.design ~invariant ~depth ())
      in
      let (r2, _), t_fresh =
        time (fun () ->
            Bmc.check_safety ~assumes ~simplify:!pipeline ~mono:true
              ~budget:(bench_budget ()) ~design:e.Entry.design ~invariant ~depth ())
      in
      let show = function
        | Bmc.Holds a -> Printf.sprintf "holds<=%d" a
        | Bmc.Violated w -> Printf.sprintf "cex@%d" w.Bmc.w_length
        | Bmc.Unknown u ->
            Printf.sprintf "unknown:%s" (Sat.Solver.reason_to_string u.Bmc.un_reason)
      in
      let result, same =
        match (r1, r2) with
        (* Not a mismatch: one side gave up under the --timeout or
           --max-conflicts budget, so there is nothing to compare. *)
        | Bmc.Unknown _, _ -> (show r1, true)
        | _, Bmc.Unknown _ -> (show r2, true)
        | _ ->
            ( show r1,
              agree "a2" (Printf.sprintf "depth %d" depth) ~expected:(show r1)
                ~got:(show r2) )
      in
      Printf.printf "%-8d %14.3f %14.3f %10s%s\n%!" depth t_default t_fresh result
        (if same then "" else "  MISMATCH"))
    [ 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* A3: ablation — monolithic vs decomposed verification (A-QED^2).      *)

let a3 () =
  header "A3  Ablation: monolithic vs decomposed verification (peak_accum)";
  let e = Registry.find "peak_accum" in
  let mono, t_mono =
    time (fun () -> check Checks.Gqed e.Entry.design e.Entry.iface ~bound:e.Entry.rec_bound)
  in
  let dec, t_dec =
    time (fun () ->
        Qed.Decompose.check_all Designs.Peak_accum.decomposition ~bound:e.Entry.rec_bound)
  in
  Printf.printf "monolithic G-QED:   %-10s %6.2fs  (%d vars, %d clauses)\n"
    (short_verdict mono) t_mono mono.Checks.cnf_vars mono.Checks.cnf_clauses;
  Printf.printf "decomposed (A-QED^2): %-8s %6.2fs  (%d sub-accelerators)\n"
    (if dec.Qed.Decompose.all_pass then "pass" else "FAIL")
    t_dec
    (List.length dec.Qed.Decompose.results);
  (* Bug localization: seed a mux bug into the tracker half of the
     composition; the decomposition finds it in the right sub. *)
  let buggy_sub =
    List.find_map
      (fun (m, d) ->
        if m.Mutation.operator = Mutation.Ite_flip then Some d else None)
      (Mutation.mutants (Registry.find "maxtrack").Entry.design)
  in
  match buggy_sub with
  | None -> ()
  | Some buggy ->
      let subs =
        List.map
          (fun sub ->
            if sub.Qed.Decompose.sub_name = "maxtrack" then
              { sub with Qed.Decompose.sub_design = buggy }
            else sub)
          Designs.Peak_accum.decomposition
      in
      let r = Qed.Decompose.check_all subs ~bound:e.Entry.rec_bound in
      (match Qed.Decompose.first_failure r with
      | Some (name, f) ->
          Printf.printf "seeded tracker bug localized to sub-accelerator %s (%s)\n" name
            (Checks.failure_kind_to_string f.Checks.kind)
      | None -> Printf.printf "seeded bug NOT localized\n")

(* ------------------------------------------------------------------ *)
(* S1: formula-shrinking pipeline — per-stage ablation and the           *)
(* off-vs-on design x mutant matrix.                                     *)

let design_filter : string list option ref = ref None

let s1_entries () =
  match !design_filter with
  | None -> Registry.all
  | Some names ->
      List.iter
        (fun n ->
          if not (List.exists (fun e -> e.Entry.name = n) Registry.all) then begin
            Printf.eprintf "bench: --designs: unknown design %s\n" n;
            exit 2
          end)
        names;
      List.filter (fun e -> List.mem e.Entry.name names) Registry.all

let s1 () =
  header "S1  Formula-shrinking pipeline: stage ablation + off-vs-on matrix";
  let entries = s1_entries () in
  let stages =
    [
      ("off", Bmc.no_simplify);
      ("rewrite", { Bmc.no_simplify with Bmc.sc_rewrite = true });
      ("pg", { Bmc.no_simplify with Bmc.sc_pg = true });
      ("cnf", { Bmc.no_simplify with Bmc.sc_cnf = true });
      ("all", Bmc.default_simplify);
    ]
  in
  (* Per-stage ablation on the correct designs with the default engine
     (BVE runs only once it has switched to fresh solvers). "clauses" is the total number of clauses sent to the solver
     over all SAT queries of the check. Any stage changing the verdict is a
     verifier bug and fails the bench run. *)
  Printf.printf "per-stage clauses sent (correct designs, G-QED at the recommended bound):\n";
  Printf.printf "%-12s %-8s %9s %9s %10s %8s\n" "design" "stage" "vars" "clauses" "verdict"
    "time(s)";
  let ablation =
    List.map
      (fun (e, (stage, conf)) ->
        let report, dt =
          time (fun () ->
              check ~simplify:conf Checks.Gqed e.Entry.design e.Entry.iface
                ~bound:e.Entry.rec_bound)
        in
        (e.Entry.name, stage, report, dt))
      (List.concat_map (fun e -> List.map (fun s -> (e, s)) stages) entries)
  in
  let baseline_verdict name =
    List.find_map
      (fun (n, stage, r, _) -> if n = name && stage = "off" then Some (verdict_key r) else None)
      ablation
  in
  List.iter
    (fun (name, stage, report, dt) ->
      let vk = verdict_key report in
      let same =
        agree "s1" (name ^ "/" ^ stage)
          ~expected:(Option.value (baseline_verdict name) ~default:"<no baseline>")
          ~got:vk
      in
      Printf.printf "%-12s %-8s %9d %9d %10s %8.2f%s\n%!" name stage report.Checks.cnf_vars
        report.Checks.simp.Bmc.Engine.ss_clauses_emitted vk dt
        (if same then "" else "  VERDICT MISMATCH"))
    ablation;
  (* Off-vs-on over the full design x mutant matrix (same mutant suites as
     T2). "Clauses" is again the total sent to the solver over the whole
     check; the per-case ratios feed the geo-mean reduction figure. *)
  let cases =
    List.concat_map
      (fun e -> List.map (fun (label, design) -> (e, label, design)) (design_cases e))
      entries
  in
  let matrix =
    List.map
      (fun (e, label, design) ->
        let run simplify =
          check ~simplify Checks.Gqed design e.Entry.iface ~bound:e.Entry.rec_bound
        in
        let off = run Bmc.no_simplify in
        let on = run Bmc.default_simplify in
        (e.Entry.name, label, off, on))
      cases
  in
  Printf.printf "\noff vs on over the design x mutant matrix (%d cases):\n"
    (List.length matrix);
  Printf.printf "%-12s %-28s %10s %10s %7s %10s\n" "design" "case" "cl(off)" "cl(on)"
    "saved" "verdict";
  let ratios =
    List.filter_map
      (fun (name, label, off, on) ->
        let vk_off = verdict_key off and vk_on = verdict_key on in
        let same = agree "s1" (name ^ "/" ^ label) ~expected:vk_off ~got:vk_on in
        let cl_off = off.Checks.simp.Bmc.Engine.ss_clauses_emitted
        and cl_on = on.Checks.simp.Bmc.Engine.ss_clauses_emitted in
        let saved =
          if cl_off > 0 then
            Printf.sprintf "%.0f%%"
              (100.0 *. (1.0 -. (float_of_int cl_on /. float_of_int cl_off)))
          else "-"
        in
        Printf.printf "%-12s %-28s %10d %10d %7s %10s%s\n%!" name label cl_off cl_on saved
          vk_on
          (if same then "" else Printf.sprintf "  VERDICT MISMATCH (off: %s)" vk_off);
        if cl_off > 0 && cl_on > 0 then Some (float_of_int cl_on, float_of_int cl_off)
        else None)
      matrix
  in
  match Report.geo_mean_ratio ratios with
  | None -> ()
  | Some kept ->
      Printf.printf
        "\ngeo-mean clause reduction: %.1f%% over %d cases; verdict mismatches: %d\n"
        (100.0 *. (1.0 -. kept))
        (List.length ratios) (flip_count "s1")

(* ------------------------------------------------------------------ *)
(* F1: G-QED runtime vs unroll bound (scaling curves).                  *)

let f1 () =
  header "F1  G-QED runtime vs unroll bound (seconds; one series per design)";
  let designs = [ "accum"; "maxtrack"; "alu_pipe"; "mmio_engine" ] in
  let bounds = [ 2; 3; 4; 5; 6 ] in
  Printf.printf "%-6s" "bound";
  List.iter (Printf.printf " %12s") designs;
  Printf.printf "\n";
  (* Each cell's time is its own task wall-clock. *)
  let cells = List.concat_map (fun b -> List.map (fun d -> (b, d)) designs) bounds in
  let timed =
    map_timed
      (fun (bound, name) ->
        let e = Registry.find name in
        check ~simplify:!pipeline Checks.Gqed e.Entry.design e.Entry.iface ~bound)
      cells
  in
  List.iteri
    (fun bi bound ->
      Printf.printf "%-6d" bound;
      List.iteri
        (fun di _ ->
          let _, dt = List.nth timed ((bi * List.length designs) + di) in
          Printf.printf " %11.3f " dt)
        designs;
      Printf.printf "\n%!")
    bounds

(* ------------------------------------------------------------------ *)
(* F2: CRV detection rate vs budget, with the G-QED one-shot line.      *)

let f2 () =
  header "F2  Detection rate vs CRV budget, against one G-QED run";
  let cases =
    [
      (* easy bug: random simulation wins quickly *)
      ("accum/off_by_one", "accum", Mutation.Off_by_one);
      (* always-on interference: both find it *)
      ("accum/hidden_state", "accum", Mutation.Hidden_state);
      (* rare-trigger interference: the class that escapes regressions *)
      ("accum/rare_output", "accum", Mutation.Rare_output);
      ("maxtrack/rare_state", "maxtrack", Mutation.Rare_state);
      ("mmio/rare_output", "mmio_engine", Mutation.Rare_output);
      (* uniform bug: only the golden-model flow can see it *)
      ("seqdet/op_swap", "seqdet", Mutation.Op_swap);
    ]
  in
  let budgets = [ 1; 3; 10; 30; 100; 300 ] in
  let seeds = List.init 20 (fun i -> i + 1) in
  Printf.printf "%-20s" "mutant";
  List.iter (fun b -> Printf.printf " %7s" (Printf.sprintf "%dtx" b)) budgets;
  Printf.printf " %16s\n" "G-QED one-shot";
  List.map
    (fun (label, design_name, op) ->
      let e = Registry.find design_name in
      match
        List.find_map
          (fun (m, d) -> if m.Mutation.operator = op then Some d else None)
          (Mutation.mutants e.Entry.design)
      with
      | None -> None
      | Some mutant ->
          let curve = Crv.detection_curve ~design_override:mutant e ~budgets ~seeds in
          let report, dt =
            time (fun () -> check Checks.Gqed_flow mutant e.Entry.iface ~bound:e.Entry.rec_bound)
          in
          let one_shot =
            match report.Checks.verdict with
            | Checks.Pass _ -> "missed"
            | Checks.Fail _ -> "found"
            | Checks.Unknown _ -> "unknown"
          in
          Some (label, curve, one_shot, dt))
    cases
  |> List.iter (function
       | None -> ()
       | Some (label, curve, one_shot, dt) ->
           Printf.printf "%-20s" label;
           List.iter (fun (_, rate) -> Printf.printf " %6.0f%%" (100.0 *. rate)) curve;
           Printf.printf " %9s %5.1fs\n%!" one_shot dt);
  Printf.printf
    "\n(rare-trigger rows: the corruption needs a coincidence of hidden phase,\n\
     operand and state values; symbolic search constructs it in one query)\n"

(* ------------------------------------------------------------------ *)
(* F3: counterexample length, G-QED vs CRV cycles-to-detection.         *)

let f3 () =
  header "F3  Counterexample length: G-QED trace vs CRV cycles-to-detection";
  let rows = Lazy.force t2_rows in
  let geomean = function
    | [] -> nan
    | xs ->
        exp
          (List.fold_left (fun acc x -> acc +. log (float_of_int (max 1 x))) 0.0 xs
          /. float_of_int (List.length xs))
  in
  Printf.printf "%-12s %18s %18s %8s\n" "design" "G-QED cex (geo.)" "CRV cycles (geo.)"
    "ratio";
  let all_g = ref [] and all_c = ref [] in
  List.iter
    (fun row ->
      if row.r_gqed_cex <> [] && row.r_crv_cycles <> [] then begin
        all_g := row.r_gqed_cex @ !all_g;
        all_c := row.r_crv_cycles @ !all_c;
        let g = geomean row.r_gqed_cex and c = geomean row.r_crv_cycles in
        Printf.printf "%-12s %18.1f %18.1f %7.1fx\n" row.r_name g c (c /. g)
      end)
    rows;
  let g = geomean !all_g and c = geomean !all_c in
  Printf.printf "%-12s %18.1f %18.1f %7.1fx  (A-QED DAC'20 reports ~37x)\n" "OVERALL" g c
    (c /. g)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel.    *)

(* PHP(np, nh) as a fresh solver: every pigeon in some hole, no two pigeons
   in one hole. *)
let pigeonhole np nh =
  let s = Sat.Solver.create () in
  let p = Array.init np (fun _ -> Array.init nh (fun _ -> Sat.Solver.new_var s)) in
  for i = 0 to np - 1 do
    Sat.Solver.add_clause s (List.init nh (fun h -> Sat.Lit.pos p.(i).(h)))
  done;
  for h = 0 to nh - 1 do
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        Sat.Solver.add_clause s [ Sat.Lit.neg p.(i).(h); Sat.Lit.neg p.(j).(h) ]
      done
    done
  done;
  s

(* A Tseitin-style CNF: [ninputs] inputs, [ngates] AND gates over random
   earlier nodes with random polarities (three clauses each), and one
   clause asking for one of the last three gates. *)
let tseitin_cnf ~seed ~ninputs ~ngates =
  let rand = Random.State.make [| seed |] in
  let lit v = Sat.Lit.make v ~neg:(Random.State.bool rand) in
  let gates =
    List.init ngates (fun i ->
        let g = ninputs + i in
        let a = lit (Random.State.int rand g) and b = lit (Random.State.int rand g) in
        [
          [| Sat.Lit.neg g; a |];
          [| Sat.Lit.neg g; b |];
          [| Sat.Lit.pos g; Sat.Lit.negate a; Sat.Lit.negate b |];
        ])
  in
  let n = ninputs + ngates in
  (n, Array.of_list (List.concat gates @ [ Array.init 3 (fun i -> Sat.Lit.pos (n - 1 - i)) ]))

let micro () =
  header "Micro-benchmarks (Bechamel): per-experiment computational kernels";
  let open Bechamel in
  let accum = Registry.find "accum" in
  let mutant =
    List.find_map
      (fun (m, d) -> if m.Mutation.operator = Mutation.Off_by_one then Some d else None)
      (Mutation.mutants accum.Entry.design)
    |> Option.get
  in
  let simp_nvars, simp_cnf = tseitin_cnf ~seed:5 ~ninputs:200 ~ngates:3000 in
  let simp_frozen = Array.make simp_nvars false in
  let simp_protected = Array.make (Array.length simp_cnf) false in
  let sim_inputs =
    let rand = Random.State.make [| 9 |] in
    List.init 200 (fun _ ->
        Entry.operand_valuation accum ~valid:true (accum.Entry.sample_operand rand))
  in
  let tests =
    [
      Test.make ~name:"t1.design_stats"
        (Staged.stage (fun () -> ignore (Rtl.stats accum.Entry.design)));
      Test.make ~name:"t2.gqed_buggy_mutant"
        (Staged.stage (fun () -> ignore (Checks.gqed mutant accum.Entry.iface ~bound:4)));
      Test.make ~name:"t3.gqed_pass_bound3"
        (Staged.stage (fun () ->
             ignore (Checks.gqed accum.Entry.design accum.Entry.iface ~bound:3)));
      Test.make ~name:"t4.productivity_model"
        (Staged.stage (fun () -> ignore (Productivity.improvement accum)));
      Test.make ~name:"t5.transaction_table"
        (Staged.stage (fun () ->
             ignore
               (Theory.transaction_table accum.Entry.design accum.Entry.iface
                  ~alphabet:
                    (Theory.default_alphabet ~operand_values:[ 0; 1 ] accum.Entry.design
                       accum.Entry.iface)
                  ~depth:3)));
      Test.make ~name:"a1.gqed_output_only_bound3"
        (Staged.stage (fun () ->
             ignore (Checks.gqed_output_only accum.Entry.design accum.Entry.iface ~bound:3)));
      Test.make ~name:"a2.bmc_safety_depth6"
        (Staged.stage (fun () ->
             ignore
               (Bmc.check_safety ~design:accum.Entry.design
                  ~invariant:(Expr.ne (Expr.var "acc" 4) (Expr.const_int ~width:4 15))
                  ~depth:6 ())));
      Test.make ~name:"f1.simulate_200_cycles"
        (Staged.stage (fun () -> ignore (Rtl.simulate accum.Entry.design sim_inputs)));
      Test.make ~name:"f2.crv_200tx"
        (Staged.stage (fun () ->
             ignore
               (Crv.run accum { Crv.seed = 1; max_transactions = 200; idle_prob = 0.2 })));
      Test.make ~name:"f3.aqed_fc_bound4"
        (Staged.stage (fun () -> ignore (Checks.aqed_fc mutant accum.Entry.iface ~bound:4)));
      Test.make ~name:"sat.cdcl_php_8_7"
        (Staged.stage (fun () -> ignore (Sat.Solver.solve (pigeonhole 8 7))));
      Test.make ~name:"sat.simplify_bve"
        (Staged.stage (fun () ->
             ignore
               (Sat.Simplify.run ~nvars:simp_nvars ~frozen:simp_frozen
                  ~protected:simp_protected simp_cnf)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"kernel" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let est =
          match Analyze.OLS.estimates result with Some (e :: _) -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-36s %16s\n" "kernel" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-36s %16s\n" name human)
    rows

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5);
    ("a1", a1); ("a2", a2); ("a3", a3); ("s1", s1);
    ("f1", f1); ("f2", f2); ("f3", f3); ("micro", micro);
  ]

let () =
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--no-simplify" :: rest ->
        pipeline := Bmc.no_simplify;
        parse_args acc rest
    | "--timeout" :: s :: rest -> begin
        match float_of_string_opt s with
        | Some t when t > 0.0 ->
            timeout := Some t;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --timeout expects a positive number of seconds";
            exit 2
      end
    | [ "--timeout" ] ->
        prerr_endline "bench: --timeout expects a positive number of seconds";
        exit 2
    | "--max-conflicts" :: s :: rest -> begin
        match int_of_string_opt s with
        | Some n when n >= 1 ->
            max_conflicts := Some n;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --max-conflicts expects a positive integer";
            exit 2
      end
    | [ "--max-conflicts" ] ->
        prerr_endline "bench: --max-conflicts expects a positive integer";
        exit 2
    | "--designs" :: names :: rest ->
        design_filter := Some (String.split_on_char ',' names);
        parse_args acc rest
    | [ "--designs" ] ->
        prerr_endline "bench: --designs expects a comma-separated list";
        exit 2
    | "--trace" :: path :: rest ->
        obs_trace_path := Some path;
        parse_args acc rest
    | [ "--trace" ] ->
        prerr_endline "bench: --trace expects a file path";
        exit 2
    | "--metrics" :: path :: rest ->
        obs_metrics_path := Some path;
        parse_args acc rest
    | [ "--metrics" ] ->
        prerr_endline "bench: --metrics expects a file path";
        exit 2
    | "--trace-format" :: f :: rest -> begin
        match f with
        | "ndjson" ->
            obs_format := `Ndjson;
            parse_args acc rest
        | "chrome" ->
            obs_format := `Chrome;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --trace-format expects ndjson or chrome";
            exit 2
      end
    | [ "--trace-format" ] ->
        prerr_endline "bench: --trace-format expects ndjson or chrome";
        exit 2
    | "--force" :: rest ->
        force_overwrite := true;
        parse_args acc rest
    | id :: rest -> parse_args (id :: acc) rest
  in
  let requested =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | ids -> ids
  in
  (* Output-file guards run only after the whole command line is parsed, so
     --force works in any position. Refusing to clobber an existing file
     beats discovering the loss after an hour-long run. *)
  List.iter
    (fun (flag, path) ->
      match path with
      | None -> ()
      | Some path -> (
          match Obs.Export.guard ~force:!force_overwrite path with
          | Error msg ->
              prerr_endline ("bench: " ^ msg);
              exit 2
          | Ok () -> (
              (* Fail fast on an unwritable path rather than after the run. *)
              try close_out (open_out path)
              with Sys_error e ->
                Printf.eprintf "bench: cannot write %s file: %s\n" flag e;
                exit 2)))
    [ ("--trace", !obs_trace_path); ("--metrics", !obs_metrics_path) ];
  if !obs_trace_path <> None || !obs_metrics_path <> None then Obs.enable ();
  List.iter
    (fun id ->
      if not (List.mem_assoc id experiments) then begin
        Printf.eprintf "bench: unknown experiment %s (known: %s)\n" id
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    requested;
  Printf.printf "G-QED reproduction harness — %d experiment(s)\n" (List.length requested);
  List.iter
    (fun id ->
      let (), dt = time (List.assoc id experiments) in
      Printf.printf "[%s completed in %.1fs]\n%!" id dt)
    requested;
  (match !obs_trace_path with
  | None -> ()
  | Some path ->
      let evs = Obs.Trace.events () in
      Obs.Trace.write ~format:!obs_format path evs;
      Printf.printf "trace written to %s (%d events)\n" path (List.length evs));
  (match !obs_metrics_path with
  | None -> ()
  | Some path ->
      Obs.Metrics.write path (Obs.Metrics.snapshot ());
      Printf.printf "metrics written to %s\n" path);
  let flips = List.rev !flips in
  List.iter (fun f -> prerr_endline ("bench: FLIP " ^ Report.flip_to_string f)) flips;
  let unknowns = !unknown_verdicts in
  let code = Report.exit_code ~flips ~unknowns in
  if code = 1 then
    Printf.eprintf "bench: FAILED — %d verdict disagreement(s)\n" (List.length flips)
  else if code = 3 then
    (* Nothing wrong, but some verdicts stayed unknown under the
       --timeout/--max-conflicts budget. *)
    Printf.eprintf
      "bench: %d verdict(s) unknown under the configured budget (raise --timeout or \
       --max-conflicts)\n"
      unknowns;
  exit code

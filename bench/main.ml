(* Experiment harness: regenerates every table and figure of the
   (reconstructed) evaluation — see DESIGN.md section 4 and EXPERIMENTS.md
   for the experiment index and the mapping to the paper's claims.

   Usage:
     dune exec bench/main.exe                       # all experiments
     dune exec bench/main.exe -- t2 f1              # a subset, by id
     dune exec bench/main.exe -- --jobs 4 t2        # fan tasks over 4 domains

   Experiment ids: t1 t2 t3 t4 t5 a1 a2 a3 s1 f1 f2 f3 rob p1 r2 dist obs
   micro.

   --checkpoint FILE journals every check's verdict to a crash-safe
   write-ahead log as the run progresses; --resume replays an existing
   journal and skips the decided tasks, reproducing the uninterrupted
   verdict matrix bit-for-bit (journaled Unknown verdicts are always
   re-attempted). A fresh run refuses an existing journal unless --force;
   --resume without a journal is an error. Timing figures of a resumed
   run are not comparable to a cold one (skipped cells cost ~0), but no
   verdict or table cell ever changes. The r2 experiment exercises the
   same machinery in-process: journaled run, killed at a random record,
   resumed, diffed — plus injected journal I/O faults and supervised
   worker restarts; any flip exits 1. --seed N varies which kill point
   the r2 crash simulation picks (verdicts are seed-independent).

   --trace FILE / --metrics FILE / --trace-format ndjson|chrome enable
   the Obs layer for the whole run and write the merged span trace and
   metrics snapshot on completion. The obs experiment cross-checks that
   tracing never changes a verdict and that emitted traces pass the
   well-formedness checker; any disagreement fails the run (exit 1).

   --trace/--metrics refuse to overwrite an existing file; pass --force to
   replace it.

   --portfolio N sets the worker count of the p1 clause-sharing portfolio
   experiment (default 4; clamped so --jobs x --portfolio never exceeds
   the machine's domain count); --no-share turns off learnt-clause
   sharing between its workers. p1 exits nonzero if the portfolio lane
   flips any verdict of the single-solver lane.

   --workers N sets the worker-process count of the dist experiment's
   distributed lane (default: up to 4, at least 2); --batch M its pull
   batch size. --max-restarts / --backoff SEC / --no-retry-oom configure
   the restart policy its supervisor (and `gqed campaign`) applies to
   worker deaths. dist solves every campaign cell twice — serially
   in-process and across N worker processes journaling to per-worker
   shards — and exits 1 if any verdict differs; a kill/resume lane
   SIGKILLs a worker mid-campaign and checks the merged resume matrix
   against the serial one.

   --designs d1,d2 restricts s1 to the named designs; --no-simplify runs
   the solver-cost experiments (t3, f1, a2) with the formula-shrinking
   pipeline off. s1 exits nonzero if any pipeline stage changes a verdict.

   --timeout SEC and --max-conflicts N put a per-query budget on every
   check the harness runs; a check that exhausts it reports "unknown"
   instead of a verdict. --no-escalate turns off the Bmc.Escalate retry
   ladder that otherwise regrows exhausted budgets until the check
   decides.

   The exit status is the run's one gate. Every experiment that compares
   a reference lane with a variant (s1, a2, t5, rob, p1, obs, r2, dist)
   reports each disagreement as (experiment, cell, expected, got); the
   run lists them all at the end and exits 1 if there is any. Otherwise
   it exits 3 when some verdict stayed unknown under the budget, and 0.
   Machine-readable measurements live in bench/perf (see its README).

   Parallelism never changes any verdict or table cell: every task builds
   its own engine and results are reassembled in input order (see
   lib/par/DESIGN.md), so --jobs N only changes wall-clock time. *)

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
(* Parallel fan-out (--jobs), run-wide flags and the verdict gate.      *)

let jobs = ref 1

(* --no-simplify: run the solver-cost experiments (t3, f1, a2) with the
   formula-shrinking pipeline disabled, for before/after comparisons. S1
   always runs both configurations and ignores this flag. *)
let pipeline = ref Bmc.default_simplify

(* --timeout / --max-conflicts build the per-query budget every governed
   check runs under; --no-escalate disables the retry ladder. Counters are
   atomic because checks run on worker domains under Par fan-outs. *)
let timeout : float option ref = ref None
let max_conflicts : int option ref = ref None
let escalate = ref true
let unknown_verdicts = Atomic.make 0
let escalation_attempts = Atomic.make 0

(* --portfolio / --no-share configure the p1 experiment's parallel lane. *)
let portfolio_width = ref 4
let portfolio_share = ref true

(* --workers / --batch size the dist experiment's worker-process lane;
   --max-restarts / --backoff / --no-retry-oom shape the restart policy
   its supervisor applies to worker deaths (the same knobs `gqed
   campaign` exposes). workers = 0 means auto: min(cores, 4), at least 2
   so the distributed lane is really distributed. *)
let dist_workers = ref 0
let dist_batch = ref 2
let dist_max_restarts = ref Par.Supervise.default_policy.Par.Supervise.max_restarts
let dist_backoff = ref Par.Supervise.default_policy.Par.Supervise.backoff_s
let dist_retry_oom = ref true

let dist_policy () =
  {
    Par.Supervise.max_restarts = !dist_max_restarts;
    backoff_s = !dist_backoff;
    backoff_cap_s =
      Float.max !dist_backoff
        Par.Supervise.default_policy.Par.Supervise.backoff_cap_s;
    retry_oom = !dist_retry_oom;
  }

(* --trace / --metrics / --trace-format enable the Obs layer for the whole
   run; --force permits overwriting existing trace and metrics files (and
   starting a fresh campaign over an existing --checkpoint journal). *)
let obs_trace_path : string option ref = ref None
let obs_metrics_path : string option ref = ref None
let obs_format : [ `Ndjson | `Chrome ] ref = ref `Ndjson
let force_overwrite = ref false

(* --checkpoint FILE journals every check's outcome to a crash-safe
   write-ahead log; --resume replays it and skips the decided keys, so a
   killed run picks up where it stopped with an identical verdict matrix.
   The skip counter is atomic because checks run on worker domains. *)
let checkpoint_path : string option ref = ref None
let checkpoint_resume = ref false
let campaign : Persist.Campaign.t option ref = ref None
let campaign_skips = Atomic.make 0

(* --seed N perturbs the seeded randomness of experiments that use any
   (currently the R2 kill point); verdicts are seed-independent, so this
   only varies which crash sites a soak run explores. *)
let seed = ref 0

(* The run's one verdict gate: every disagreement any experiment finds
   between a reference lane and a variant lands here, and a nonempty list
   fails the run (Report.exit_code). Experiments record from the main
   domain only, after their fan-outs have joined. *)
let flips : Report.flip list ref = ref []

let disagree experiment cell ~expected ~got =
  flips := { Report.experiment; cell; expected; got } :: !flips

(* [true] when the two verdict strings match; a mismatch is recorded. *)
let agree experiment cell ~expected ~got =
  let same = String.equal expected got in
  if not same then disagree experiment cell ~expected ~got;
  same

(* Cell-by-cell [agree] over two verdict columns; the number of
   disagreements. *)
let agree_all experiment ~cells expected got =
  List.fold_left2
    (fun n cell (expected, got) ->
      if agree experiment cell ~expected ~got then n else n + 1)
    0 cells (List.combine expected got)

let flip_count experiment =
  List.length (List.filter (fun f -> f.Report.experiment = experiment) !flips)

let bench_limits () =
  match (!timeout, !max_conflicts) with
  | None, None -> Bmc.no_limits
  | t, c -> Bmc.limits ~budget:(Sat.Solver.budget ?conflicts:c ?seconds:t ()) ()

let record report =
  (match report.Checks.verdict with
  | Checks.Unknown _ -> Atomic.incr unknown_verdicts
  | Checks.Pass _ | Checks.Fail _ -> ());
  let extra = List.length report.Checks.attempts - 1 in
  if extra > 0 then ignore (Atomic.fetch_and_add escalation_attempts extra);
  report

(* Every experiment's checks funnel through here so the budget flags,
   escalation policy and the --checkpoint journal apply uniformly. With no
   budget set this is exactly the direct check: run_escalating under
   Bmc.no_limits is one attempt. [check_warm] additionally says whether
   the report was served warm from the --checkpoint journal — the timing
   experiments (t3, f1) use it so resumed rows are never mistaken for
   cold measurements. Solved cells journal their wall-clock seconds,
   which later distributed runs read back for hardest-first ordering. *)
let check_warm ?simplify ?mono technique design iface ~bound =
  let limits = bench_limits () in
  let solve () =
    if !escalate then
      Checks.run_escalating ?simplify ?mono ~limits technique design iface ~bound
    else Checks.run ?simplify ?mono ~limits technique design iface ~bound
  in
  match !campaign with
  | None -> (record (solve ()), false)
  | Some c -> (
      let key = Checks.campaign_key technique design iface ~bound in
      let cached =
        (* Only decided verdicts come back from the journal (the Unknown
           rule lives in Persist.Campaign); a payload from a stale schema
           decodes to None and the task simply re-runs. *)
        Option.bind (Persist.Campaign.find_decided c key) Checks.decode_report
      in
      match cached with
      | Some r ->
          Atomic.incr campaign_skips;
          (record r, true)
      | None ->
          let r, dt = time solve in
          Persist.Campaign.record c ~seconds:dt ~decided:(Checks.report_decided r)
            ~key ~payload:(Checks.encode_report r);
          (record r, false))

let check ?simplify ?mono technique design iface ~bound =
  fst (check_warm ?simplify ?mono technique design iface ~bound)

let par_map f xs = Par.map ~jobs:!jobs f xs

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
   design; the whole matrix fans out over domains at once and the rows are
   reassembled in registry order, so the printed table is independent of
   [jobs]. *)
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
    par_map
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
  (* Per-design rows fan out over domains; printing stays in registry order. *)
  let rows =
    Par.map_timed ~jobs:!jobs
      (fun e ->
        (e, check_warm ~simplify:!pipeline Checks.Gqed e.Entry.design e.Entry.iface
              ~bound:e.Entry.rec_bound))
      Registry.all
  in
  List.iter
    (fun ((e, (report, warm)), dt) ->
      Printf.printf "%-12s %6d %9d %9d %10d %9s %8.2f%s\n%!" e.Entry.name
        e.Entry.rec_bound report.Checks.cnf_vars report.Checks.cnf_clauses
        report.Checks.sat_stats.Sat.Solver.conflicts (short_verdict report) dt
        (if warm then "  (journal)" else ""))
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
  par_map
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
  par_map
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
    par_map
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
  par_map
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
(* A2: ablation — incremental vs monolithic BMC.                        *)

let a2 () =
  header "A2  Ablation: incremental vs monolithic BMC (accum reachability)";
  let e = Registry.find "accum" in
  let assumes =
    [
      Expr.ult (Expr.var "x" 4) (Expr.const_int ~width:4 2);
      Expr.eq (Expr.var "cmd" 1) (Expr.const_int ~width:1 0);
    ]
  in
  let invariant = Expr.ne (Expr.var "acc" 4) (Expr.const_int ~width:4 15) in
  Printf.printf "%-8s %14s %14s %10s\n" "depth" "incremental(s)" "monolithic(s)" "result";
  List.iter
    (fun depth ->
      let (r1, _), t_inc =
        time (fun () ->
            Bmc.check_safety ~assumes ~simplify:!pipeline ~limits:(bench_limits ())
              ~design:e.Entry.design ~invariant ~depth ())
      in
      let (r2, _), t_mono =
        time (fun () ->
            Bmc.check_safety ~assumes ~simplify:!pipeline ~mono:true
              ~limits:(bench_limits ()) ~design:e.Entry.design ~invariant ~depth ())
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
      Printf.printf "%-8d %14.3f %14.3f %10s%s\n%!" depth t_inc t_mono result
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
      ("coi", { Bmc.no_simplify with Bmc.sc_coi = true });
      ("rewrite", { Bmc.no_simplify with Bmc.sc_rewrite = true });
      ("pg", { Bmc.no_simplify with Bmc.sc_pg = true });
      ("cnf", { Bmc.no_simplify with Bmc.sc_cnf = true });
      ("all", Bmc.default_simplify);
    ]
  in
  (* Per-stage ablation on the correct designs, in monolithic mode (the
     mode where every stage of the pipeline is live — per-query compaction
     and BVE are no-ops on the incremental engine). "clauses" is the total
     number of clauses sent to the solver over all SAT queries of the
     check. Any stage changing the verdict is a verifier bug and fails the
     bench run. *)
  Printf.printf
    "per-stage clauses sent (correct designs, monolithic G-QED at the recommended bound):\n";
  Printf.printf "%-12s %-8s %9s %9s %10s %8s\n" "design" "stage" "vars" "clauses" "verdict"
    "time(s)";
  let ablation =
    par_map
      (fun (e, (stage, conf)) ->
        let report, dt =
          time (fun () ->
              check ~simplify:conf ~mono:true Checks.Gqed e.Entry.design e.Entry.iface
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
     T2), monolithic mode on both sides so the comparison is controlled.
     "Clauses" is again the total sent to the solver over the whole check;
     the per-case ratios feed the geo-mean reduction figure. *)
  let cases =
    List.concat_map
      (fun e -> List.map (fun (label, design) -> (e, label, design)) (design_cases e))
      entries
  in
  let matrix =
    par_map
      (fun (e, label, design) ->
        let run simplify =
          check ~simplify ~mono:true Checks.Gqed design e.Entry.iface
            ~bound:e.Entry.rec_bound
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
  (* All (bound, design) cells fan out at once; each cell's time is its own
     task wall-clock, so the grid is the same data the serial run prints. *)
  let cells = List.concat_map (fun b -> List.map (fun d -> (b, d)) designs) bounds in
  let timed =
    Par.map_timed ~jobs:!jobs
      (fun (bound, name) ->
        let e = Registry.find name in
        check_warm ~simplify:!pipeline Checks.Gqed e.Entry.design e.Entry.iface ~bound)
      cells
  in
  let warm_any = ref false in
  List.iteri
    (fun bi bound ->
      Printf.printf "%-6d" bound;
      List.iteri
        (fun di _ ->
          let (_, warm), dt = List.nth timed ((bi * List.length designs) + di) in
          if warm then warm_any := true;
          Printf.printf " %11.3f%s" dt (if warm then "*" else " "))
        designs;
      Printf.printf "\n%!")
    bounds;
  if !warm_any then
    Printf.printf
      "(* = served warm from the --checkpoint journal; lookup time, not solve time)\n"

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
  par_map
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
(* R-ROB1: robustness — fault injection, starved budgets, escalation     *)
(* recovery and the Par watchdog. See EXPERIMENTS.md.                    *)

(* A seeded stochastic solver fault hook: with probability [rate] per
   solver poll it fires resource exhaustion, external cancellation or
   allocation pressure. Deterministic in [seed]. *)
let rob_hook seed rate =
  let st = Random.State.make [| 0xb0b; seed |] in
  fun (_ : Sat.Solver.stats) ->
    if Random.State.float st 1.0 >= rate then None
    else
      match Random.State.int st 4 with
      | 0 -> Some (Sat.Solver.Fault_exhaust Sat.Solver.Out_of_conflicts)
      | 1 -> Some (Sat.Solver.Fault_exhaust Sat.Solver.Out_of_memory_budget)
      | 2 -> Some Sat.Solver.Fault_cancel
      | _ -> Some (Sat.Solver.Fault_alloc 4096)

let rob () =
  header "R-ROB1  Robustness: faults, starved budgets, escalation, watchdog";
  Printf.printf
    "Faults fire mid-solve (exhaustion / cancellation / allocation\n\
     pressure). A fault may only turn a verdict into unknown; a flip\n\
     between pass and fail fails the whole bench run.\n\n";
  let designs = [ "accum"; "maxtrack"; "seqdet" ] in
  let rates = [ 0.005; 0.02; 0.1 ] in
  let trials = 3 in
  Printf.printf "%-12s %6s %8s %9s %7s %12s\n" "design" "rate" "trials" "unknown" "flips"
    "escalation";
  List.iter
    (fun name ->
      let e = Registry.find name in
      let bound = e.Entry.rec_bound in
      let reference = Checks.gqed e.Entry.design e.Entry.iface ~bound in
      let ref_key = verdict_key reference in
      (* Escalation recovery: starve every query to a single conflict; the
         retry ladder must regrow the budget until the fault-free verdict
         comes back. *)
      let starved = Bmc.limits ~budget:(Sat.Solver.budget ~conflicts:1 ()) () in
      let recovered_report =
        Checks.run_escalating
          ~policy:{ Bmc.Escalate.default_policy with max_attempts = 8; growth = 8.0 }
          ~limits:starved Checks.Gqed e.Entry.design e.Entry.iface ~bound
      in
      let recovered =
        match recovered_report.Checks.verdict with
        | Checks.Unknown _ -> false (* stayed undecided: not a flip, just reported *)
        | Checks.Pass _ | Checks.Fail _ ->
            agree "rob" (name ^ "/escalation") ~expected:ref_key
              ~got:(verdict_key recovered_report)
      in
      List.iter
        (fun rate ->
          let outcomes =
            par_map
              (fun trial ->
                let limits =
                  Bmc.limits ~fault:(rob_hook (Hashtbl.hash (name, rate, trial)) rate) ()
                in
                Checks.run ~limits Checks.Gqed e.Entry.design e.Entry.iface ~bound)
              (List.init trials (fun i -> i))
          in
          let unknown =
            List.length
              (List.filter
                 (fun r ->
                   match r.Checks.verdict with
                   | Checks.Unknown _ -> true
                   | Checks.Pass _ | Checks.Fail _ -> false)
                 outcomes)
          in
          let flips =
            List.length
              (List.filteri
                 (fun trial r ->
                   match r.Checks.verdict with
                   | Checks.Unknown _ -> false
                   | Checks.Pass _ | Checks.Fail _ ->
                       not
                         (agree "rob"
                            (Printf.sprintf "%s/rate %.3f/trial %d" name rate trial)
                            ~expected:ref_key ~got:(verdict_key r)))
                 outcomes)
          in
          Printf.printf "%-12s %6.3f %8d %9d %7d %12s%s\n%!" name rate trials unknown flips
            (if recovered then "recovered"
             else "gave-up (" ^ short_verdict recovered_report ^ ")")
            (if flips > 0 then "  VERDICT FLIP" else ""))
        rates)
    designs;
  (* Watchdog: a deliberately oversized query runs next to a small one under
     a per-task deadline. The fan-out must not block on the big query — the
     watchdog cancels it, its row comes back cancelled, and the sibling's
     verdict is unaffected. *)
  Printf.printf "\nwatchdog (per-task deadline 0.3s, 2 tasks):\n";
  let big = Registry.find "mmio_engine" in
  let small = Registry.find "hamming74" in
  let t0 = Unix.gettimeofday () in
  let results =
    Par.map_governed ~jobs:2 ~deadline:0.3
      (fun token (e, bound) ->
        Checks.gqed ~limits:(Bmc.limits ~cancel:token ()) e.Entry.design e.Entry.iface
          ~bound)
      [ (big, 3 * big.Entry.rec_bound); (small, small.Entry.rec_bound) ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  List.iter2
    (fun (e, bound) (result, dt) ->
      match result with
      | Ok report ->
          Printf.printf "  %-12s bound %-3d -> %-28s %6.2fs\n" e.Entry.name bound
            (verdict_key report) dt
      | Error exn ->
          Printf.printf "  %-12s bound %-3d -> raised %s\n" e.Entry.name bound
            (Printexc.to_string exn))
    [ (big, 3 * big.Entry.rec_bound); (small, small.Entry.rec_bound) ]
    results;
  (match results with
  | [ (Ok r_big, _); (Ok r_small, _) ] ->
      (match r_big.Checks.verdict with
      | Checks.Unknown _ -> ()
      | Checks.Pass _ | Checks.Fail _ ->
          (* Finishing before the deadline is legal; it just means the
             machine is fast enough that the demo did not demonstrate. *)
          Printf.printf "  (oversized query finished before the deadline)\n");
      (match r_small.Checks.verdict with
      | Checks.Pass _ -> ()
      | Checks.Fail _ | Checks.Unknown _ ->
          disagree "rob" "watchdog sibling" ~expected:"pass" ~got:(verdict_key r_small);
          Printf.printf "  SIBLING AFFECTED: small query did not pass\n")
  | _ -> ());
  Printf.printf "  fan-out wall clock: %.2fs (a hung query no longer blocks the run)\n" wall

(* ------------------------------------------------------------------ *)
(* P1: clause-sharing portfolio SAT. Every cell of a design x mutant     *)
(* matrix is checked twice — single-solver lane vs portfolio lane — and  *)
(* the verdicts must agree exactly. Cells run sequentially so the        *)
(* per-cell wall-clock comparison is not perturbed by sibling cells.     *)

let p1 () =
  header "P1  Clause-sharing portfolio SAT: diversified workers race per query";
  let requested = !portfolio_width in
  (* The portfolio is p1's only parallelism (cells run sequentially), so
     the jobs x portfolio product reduces to the portfolio width here. *)
  let effective, clamped = Par.clamp_inner ~jobs:1 ~inner:requested in
  if clamped then
    Printf.printf
      "bench: warning: --portfolio %d exceeds %d available core(s); portfolio clamped \
       to %d\n"
      requested (Par.default_jobs ()) effective;
  Printf.printf
    "Each SAT query in the portfolio lane races %d diversified CDCL worker(s)%s.\n\
     Verdicts are compared cell-by-cell against the single-solver lane; any\n\
     flip fails the whole bench run (exit 1).\n\n"
    effective
    (if !portfolio_share && effective > 1 then ", sharing learnt clauses"
     else ", no clause sharing");
  let pconfig = Sat.Portfolio.config ~workers:effective ~share:!portfolio_share () in
  let single_limits = bench_limits () in
  let portfolio_limits = { single_limits with Bmc.l_portfolio = Some pconfig } in
  (* Default subset: the hardest suite members (deep recommended bounds or
     wide state), where per-query solver time dominates the check. *)
  let default_names =
    [ "accum"; "maxtrack"; "seqdet"; "hamming74"; "graycodec"; "movavg4" ]
  in
  let entries =
    match !design_filter with
    | Some _ -> s1_entries ()
    | None -> List.filter (fun e -> List.mem e.Entry.name default_names) Registry.all
  in
  Printf.printf "%-12s %-18s %-16s %-16s %7s %7s %7s %9s %9s\n" "design" "case" "single"
    "portfolio" "t1(s)" "tN(s)" "speedup" "exported" "imported";
  let timings = ref [] and n_cells = ref 0 in
  List.iter
    (fun e ->
      let bound = e.Entry.rec_bound in
      List.iter
        (fun (label, design) ->
          let single, t_single =
            time (fun () ->
                record
                  (Checks.run ~limits:single_limits Checks.Gqed design e.Entry.iface
                     ~bound))
          in
          let portfolio, t_portfolio =
            time (fun () ->
                record
                  (Checks.run ~limits:portfolio_limits Checks.Gqed design e.Entry.iface
                     ~bound))
          in
          let vk_single = verdict_key single in
          let vk_portfolio = verdict_key portfolio in
          let same =
            agree "p1" (e.Entry.name ^ "/" ^ label) ~expected:vk_single ~got:vk_portfolio
          in
          incr n_cells;
          (* Only the correct cells feed the speedup figure: their queries
             are the all-UNSAT deepening ladder, the hard subset. *)
          if label = "correct" && t_single > 0.0 && t_portfolio > 0.0 then
            timings := (t_single, t_portfolio) :: !timings;
          let st = portfolio.Checks.sat_stats in
          Printf.printf "%-12s %-18s %-16s %-16s %7.2f %7.2f %7.2f %9d %9d%s\n%!"
            e.Entry.name label vk_single vk_portfolio t_single t_portfolio
            (if t_portfolio > 0.0 then t_single /. t_portfolio else Float.nan)
            st.Sat.Solver.clauses_exported st.Sat.Solver.clauses_imported
            (if same then "" else "  VERDICT FLIP"))
        (design_cases e))
    entries;
  (match Report.geo_mean_ratio !timings with
  | None -> ()
  | Some geo ->
      Printf.printf
        "\nhard-query (correct-cell) wall-clock speedup, geo-mean over %d designs: %.2fx\n"
        (List.length !timings) geo;
      if effective > 1 && geo <= 1.0 then
        Printf.printf
          "  note: portfolio no faster than single-solver on this machine/run\n"
      else if effective = 1 then
        Printf.printf
          "  note: 1 effective worker (requested %d) — speedup comparison measures \
           portfolio overhead only\n"
          requested);
  if flip_count "p1" = 0 then
    Printf.printf "portfolio vs single verdicts: all %d cells agree\n" !n_cells

(* ------------------------------------------------------------------ *)
(* OBS: tracing is verdict-invisible and emitted traces are well-formed. *)

let obs_exp () =
  header "OBS  Observability: tracing is verdict-invisible, traces well-formed";
  Printf.printf
    "Each design is checked once with the Obs layer off and once with span\n\
     tracing on. The verdicts must match exactly and the emitted trace must\n\
     pass the structural well-formedness checker; any disagreement fails the\n\
     whole bench run (exit 1).\n\n";
  let was_on = Obs.on () in
  let names = [ "alu_pipe"; "popcount"; "graycodec" ] in
  let entries = List.filter (fun e -> List.mem e.Entry.name names) Registry.all in
  Printf.printf "%-12s %-12s %-12s %8s %8s %10s\n" "design" "untraced" "traced"
    "t_off(s)" "t_on(s)" "trace";
  List.iter
    (fun e ->
      let bound = e.Entry.rec_bound in
      let run1 () =
        record
          (Checks.run ~limits:(bench_limits ()) Checks.Gqed e.Entry.design
             e.Entry.iface ~bound)
      in
      Obs.disable ();
      let plain, t_off = time run1 in
      Obs.Trace.reset ();
      Obs.enable ();
      let traced, t_on = time run1 in
      let events = Obs.Trace.events () in
      if not was_on then Obs.disable ();
      let trace_cell =
        match Obs.Trace.check events with
        | _ when events = [] -> "EMPTY"
        | Ok () -> Printf.sprintf "%d ok" (List.length events)
        | Error _ -> "MALFORMED"
      in
      if trace_cell = "EMPTY" || trace_cell = "MALFORMED" then
        disagree "obs" (e.Entry.name ^ "/trace") ~expected:"well-formed" ~got:trace_cell;
      let vk_plain = verdict_key plain and vk_traced = verdict_key traced in
      let same = agree "obs" e.Entry.name ~expected:vk_plain ~got:vk_traced in
      Printf.printf "%-12s %-12s %-12s %8.2f %8.2f %10s%s\n%!" e.Entry.name vk_plain
        vk_traced t_off t_on trace_cell
        (if same then "" else "  VERDICT FLIP"))
    entries;
  if flip_count "obs" = 0 then
    Printf.printf "\ntraced vs untraced verdicts: all %d designs agree, traces well-formed\n"
      (List.length entries)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel.    *)

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
(* R2: crash-safe campaigns — a journaled run killed at a random record
   and resumed must reproduce the uninterrupted verdict matrix
   bit-for-bit, journal I/O faults must never leak into a verdict, and
   the supervisor must restart crashing workers without taking the
   campaign down. *)

let r2_default = [ "accum"; "hamming74"; "graycodec" ]

let r2 () =
  header "R2  Crash-safe campaigns: kill/resume equivalence + supervised restarts";
  Printf.printf
    "A (design x case) G-QED campaign is journaled to a write-ahead log,\n\
     killed at a random record (torn tail included) and resumed; the\n\
     resumed matrix must match the uninterrupted one cell-for-cell. A\n\
     second lane journals under injected I/O faults (torn / short write /\n\
     ENOSPC) — write errors degrade durability, never verdicts. Any\n\
     disagreement fails the whole bench run (exit 1).\n\n";
  let wanted = match !design_filter with Some ds -> ds | None -> r2_default in
  let entries = List.filter (fun e -> List.mem e.Entry.name wanted) Registry.all in
  let cells =
    List.concat_map
      (fun e -> List.map (fun (label, design) -> (label, e, design)) (design_cases e))
      entries
  in
  let cell_names lane =
    List.map (fun (label, e, _) -> Printf.sprintf "%s %s/%s" lane e.Entry.name label) cells
  in
  let limits = bench_limits () in
  (* One pass over the cells through a journal at [path]: supervised
     fan-out, decided journal hits are skipped on resume. Returns the
     verdict matrix (input order) and the campaign stats. *)
  let run_campaign ?fault ~resume path =
    match Persist.Campaign.start ?fault ~resume ~force:false path with
    | Error msg -> failwith ("r2: " ^ msg)
    | Ok c ->
        let outcomes =
          Par.Supervise.supervise ~jobs:!jobs
            (fun _token (_label, e, design) ->
              let key =
                Checks.campaign_key Checks.Gqed design e.Entry.iface
                  ~bound:e.Entry.rec_bound
              in
              match
                Option.bind (Persist.Campaign.find_decided c key) Checks.decode_report
              with
              | Some r -> r
              | None ->
                  let r, dt =
                    time (fun () ->
                        record
                          (Checks.run ~limits Checks.Gqed design e.Entry.iface
                             ~bound:e.Entry.rec_bound))
                  in
                  Persist.Campaign.record c ~seconds:dt
                    ~decided:(Checks.report_decided r) ~key
                    ~payload:(Checks.encode_report r);
                  r)
            cells
        in
        let stats = Persist.Campaign.stats c in
        Persist.Campaign.close c;
        let verdicts =
          List.map
            (fun o ->
              match o.Par.Supervise.s_result with
              | Ok r -> verdict_key r
              | Error cls -> "gave-up:" ^ Par.Supervise.class_to_string cls)
            outcomes
        in
        (verdicts, stats)
  in
  let tmp_journal tag =
    let f = Filename.temp_file ("gqed-r2-" ^ tag) ".jrnl" in
    Sys.remove f;
    f
  in
  (* Lane 1: uninterrupted journaled run — the reference matrix. *)
  let j_kill = tmp_journal "kill" in
  let full, stats_full = run_campaign ~resume:false j_kill in
  let n_records = stats_full.Persist.Campaign.c_appended in
  (* Kill: keep a seeded-random prefix of the journal plus a torn partial
     record — the exact on-disk state a SIGKILL mid-append leaves. *)
  let rand = Random.State.make [| 0x9e2; 0xd15c; !seed; List.length cells |] in
  let kill_at = if n_records <= 1 then 0 else Random.State.int rand n_records in
  Persist.Journal.chop ~torn_bytes:9 ~keep:kill_at j_kill;
  let resumed, stats_res = run_campaign ~resume:true j_kill in
  Printf.printf "%-12s %-18s %-16s %-16s\n" "design" "case" "full" "resumed";
  List.iter2
    (fun (label, e, _) (vf, vr) ->
      let same =
        agree "r2" (Printf.sprintf "kill-resume %s/%s" e.Entry.name label) ~expected:vf
          ~got:vr
      in
      Printf.printf "%-12s %-18s %-16s %-16s%s\n%!" e.Entry.name label vf vr
        (if same then "" else "  VERDICT FLIP"))
    cells
    (List.combine full resumed);
  Printf.printf
    "\nkilled at record %d/%d (+9 torn bytes): %d skipped from the journal, %d re-run, \
     %d corrupt tail byte(s) dropped\n"
    kill_at n_records stats_res.Persist.Campaign.c_hits
    stats_res.Persist.Campaign.c_appended
    stats_res.Persist.Campaign.c_recovered_bytes;
  (* Lane 2: journal under injected I/O faults — every third append is
     torn, every seventh fails short, every eleventh hits ENOSPC. The
     verdict matrix must not notice; then resume from the fault-riddled
     journal and it still must not notice. *)
  let fault i =
    if i mod 11 = 7 then Some Persist.Enospc
    else if i mod 7 = 3 then Some (Persist.Short_write 5)
    else if i mod 3 = 1 then Some (Persist.Torn 11)
    else None
  in
  let j_fault = tmp_journal "fault" in
  let faulty, stats_faulty = run_campaign ~fault ~resume:false j_fault in
  let fault_flips = agree_all "r2" ~cells:(cell_names "io-fault") full faulty in
  let resumed_faulty, _ = run_campaign ~resume:true j_fault in
  let fault_resume_flips =
    agree_all "r2" ~cells:(cell_names "io-fault-resume") full resumed_faulty
  in
  Printf.printf
    "I/O-fault lane: %d append(s) lost to injected faults, %d flip(s) while faulting, \
     %d flip(s) after resuming the damaged journal\n"
    stats_faulty.Persist.Campaign.c_write_errors fault_flips fault_resume_flips;
  (* Lane 3: supervision — a worker that crashes twice must be restarted
     into success, a worker that always crashes must degrade to a typed
     give-up without aborting its siblings. Serial so the attempt counts
     are deterministic. *)
  let attempt_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let demo = [ ("steady", 0); ("flaky", 2); ("doomed", max_int) ] in
  let outcomes =
    Par.Supervise.supervise ~jobs:1
      (fun _token (name, crashes) ->
        let a = Option.value ~default:0 (Hashtbl.find_opt attempt_counts name) in
        Hashtbl.replace attempt_counts name (a + 1);
        if a < crashes then failwith (name ^ ": injected crash");
        name)
      demo
  in
  List.iter2
    (fun (name, crashes) o ->
      let ok =
        match o.Par.Supervise.s_result with
        | Ok n -> n = name && crashes < o.Par.Supervise.s_attempts
        | Error (Par.Supervise.Crash _) -> crashes = max_int
        | Error _ -> false
      in
      let status =
        match o.Par.Supervise.s_result with
        | Ok _ -> "succeeded"
        | Error cls -> "gave up (" ^ Par.Supervise.class_to_string cls ^ ")"
      in
      Printf.printf "supervise: %-8s %s after %d attempt(s)\n" name status
        o.Par.Supervise.s_attempts;
      (* A misbehaving supervisor is a campaign-correctness bug: gate it
         like a flip. *)
      if not ok then
        disagree "r2" ("supervise " ^ name)
          ~expected:(if crashes = max_int then "gave up (crash)" else "succeeded")
          ~got:status)
    demo outcomes;
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ j_kill; j_fault ];
  if flip_count "r2" = 0 then
    Printf.printf
      "kill/resume, fault and supervision lanes: all %d cells reproduce the \
       uninterrupted matrix\n"
      (List.length cells)

(* ------------------------------------------------------------------ *)
(* D1: distributed sharded campaigns — the same campaign cells solved    *)
(* serially in-process and across N worker processes journaling to       *)
(* per-worker shards, flip-gated, plus a kill/resume lane and a          *)
(* supervised-restart lane. Workers are this executable re-exec'd (see   *)
(* lib/dist/DESIGN.md), so the solver rebuilds its key -> task table     *)
(* from the design names carried in [arg] alone.                         *)

(* Default subset: combined mutant matrices solve in seconds yet leave
   enough per-cell work for the process fan-out to amortize its spawn
   cost. --designs overrides. *)
let dist_default = [ "hamming74"; "graycodec"; "seqdet"; "rle"; "maxtrack" ]

let dist_cells e =
  let bound = e.Entry.rec_bound in
  let cell d =
    {
      Dist.cell_key = Checks.campaign_key Checks.Gqed d e.Entry.iface ~bound;
      cell_hint = Checks.campaign_hint d ~bound;
    }
  in
  List.map (fun (_label, d) -> cell d) (design_cases e)

let dist_tables : (string, (string, Rtl.design * Qed.Iface.t * int) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 4

(* arg = comma-separated registry names. The table is deterministic from
   them (registry designs plus the harness's shared mutant suites), so a
   worker process reconstructs exactly the coordinator's key space. *)
let dist_solver ~arg key =
  let table =
    match Hashtbl.find_opt dist_tables arg with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 64 in
        List.iter
          (fun name ->
            let e = Registry.find name in
            let bound = e.Entry.rec_bound in
            List.iter
              (fun d ->
                Hashtbl.replace t
                  (Checks.campaign_key Checks.Gqed d e.Entry.iface ~bound)
                  (d, e.Entry.iface, bound))
              (List.map snd (design_cases e)))
          (String.split_on_char ',' arg);
        Hashtbl.add dist_tables arg t;
        t
  in
  match Hashtbl.find_opt table key with
  | None -> failwith ("bench dist worker: unknown cell key " ^ key)
  | Some (d, iface, bound) ->
      let r = Checks.run Checks.Gqed d iface ~bound in
      (Checks.report_decided r, Checks.encode_report r)

let () = Dist.register "bench-campaign" dist_solver

(* Payload bytes embed wall-clock solver stats, so lane equality is over
   decoded verdicts, exactly what the tables print. *)
let dist_verdict r =
  if r.Dist.r_payload = "" then "<no payload>"
  else
    match Checks.decode_report r.Dist.r_payload with
    | Some rep -> verdict_key rep
    | None -> "<undecodable>"

let dist_exp () =
  header "D1  Distributed campaigns: serial vs N-worker-process matrix";
  let wanted = match !design_filter with Some ds -> ds | None -> dist_default in
  let entries = List.filter (fun e -> List.mem e.Entry.name wanted) Registry.all in
  let workers =
    if !dist_workers > 0 then !dist_workers else max 2 (min 4 (Par.default_jobs ()))
  in
  let policy = dist_policy () in
  Printf.printf
    "The combined campaign over %d design(s) is solved by the same\n\
     registered solver twice per trial: serially in-process (workers=1)\n\
     and sharded across %d worker processes pulling batches of %d\n\
     hardest-first, each journaling to its own shard. The merged matrices\n\
     must agree cell-for-cell; any flip fails the whole bench run\n\
     (exit 1). A kill lane then SIGKILLs a worker mid-campaign and\n\
     resumes from the leftover shards.\n\n"
    (List.length entries) workers !dist_batch;
  let tmp tag =
    let f = Filename.temp_file ("gqed-dist-" ^ tag) ".jrnl" in
    Sys.remove f;
    f
  in
  let sweep path =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      (path :: List.init 16 (Dist.worker_journal path))
  in
  let run_lane ?kill ~workers ~journal ~arg ~resume cells =
    match
      Dist.run ~workers ~batch:!dist_batch ~policy ?kill ~resume ~force:false
        ~journal ~solver:"bench-campaign" ~arg cells
    with
    | Ok (rows, st) -> (rows, st)
    | Error msg -> failwith ("dist: " ^ msg)
  in
  let per_design = List.map (fun e -> (e, dist_cells e)) entries in
  let all_cells = List.concat_map snd per_design in
  let all_arg = String.concat "," (List.map (fun e -> e.Entry.name) entries) in
  let cell_names lane =
    List.concat_map
      (fun e ->
        List.map
          (fun (label, _) -> Printf.sprintf "%s %s/%s" lane e.Entry.name label)
          (design_cases e))
      entries
  in
  (* [rows] may cover a prefix of the cells only: the restart lane runs
     the first design alone. *)
  let lane_flips lane ~reference rows =
    agree_all "dist"
      ~cells:(List.filteri (fun i _ -> i < List.length rows) (cell_names lane))
      (List.map dist_verdict reference) (List.map dist_verdict rows)
  in
  (* Throughput is measured on the combined campaign, where cross-design
     parallelism exists — a single design's matrix is usually dominated
     by its one hard all-UNSAT "correct" cell, which no amount of
     sharding can split. Two trials feed the geo-mean. *)
  let trials = 2 in
  let pairs = ref [] in
  let serial_rows = ref [] and dist_rows = ref [] in
  for trial = 1 to trials do
    let j1 = tmp "serial" and jn = tmp "par" in
    let (rows1, _), t1 =
      time (fun () -> run_lane ~workers:1 ~journal:j1 ~arg:all_arg ~resume:false all_cells)
    in
    let (rowsn, _), tn =
      time (fun () -> run_lane ~workers ~journal:jn ~arg:all_arg ~resume:false all_cells)
    in
    sweep j1;
    sweep jn;
    let flips = lane_flips (Printf.sprintf "trial %d" trial) ~reference:rows1 rowsn in
    if t1 > 0.0 && tn > 0.0 then pairs := (t1, tn) :: !pairs;
    Printf.printf "trial %d: %d cells — serial %.3fs, %d workers %.3fs (%s), %d flip(s)%s\n%!"
      trial (List.length all_cells) t1 workers tn
      (if tn > 0.0 then Printf.sprintf "%.2fx" (t1 /. tn) else "-")
      flips
      (if flips > 0 then "  VERDICT FLIP" else "");
    if trial = 1 then begin
      serial_rows := rows1;
      dist_rows := rowsn
    end
  done;
  (* Per-design matrix from trial 1. Times are sums of the journaled
     per-cell solve seconds (task-sums), so a design's row is not
     perturbed by which lane happened to co-schedule a sibling design. *)
  Printf.printf "\n%-12s %6s %14s %14s %6s\n" "design" "cells" "serial-sum(s)"
    "dist-sum(s)" "flips";
  let idx = ref 0 in
  List.iter
    (fun (e, cells) ->
      let n = List.length cells in
      let slice rows = List.filteri (fun i _ -> i >= !idx && i < !idx + n) rows in
      let s1 = slice !serial_rows and sn = slice !dist_rows in
      let sum rows = List.fold_left (fun a r -> a +. r.Dist.r_seconds) 0.0 rows in
      (* Display only: the trial loop already gated these cells. *)
      let flips =
        List.fold_left2
          (fun n a b -> if dist_verdict a <> dist_verdict b then n + 1 else n)
          0 s1 sn
      in
      Printf.printf "%-12s %6d %14.3f %14.3f %6d\n%!" e.Entry.name n (sum s1) (sum sn)
        flips;
      idx := !idx + n)
    per_design;
  (match Report.geo_mean_ratio !pairs with
  | Some g ->
      Printf.printf
        "\nserial-vs-%d-worker wall-clock speedup, geo-mean over %d trial(s): %.2fx\n"
        workers (List.length !pairs) g;
      if g <= 1.0 then
        if Par.default_jobs () <= 1 then
          Printf.printf
            "  note: 1 core available — the fan-out can only measure its own \
             overhead here (>1x needs >=2 cores)\n"
        else
          Printf.printf
            "  note: worker processes no faster than in-process on this machine/run\n"
  | None -> ());
  (* Kill/resume lane over the whole cell set: SIGKILL one worker
     mid-campaign (`Abort also downs its siblings, the hard variant),
     then resume — leftover shards merge first, journaled Unknowns
     re-solve, and the matrix must match the serial reference. *)
  let jk = tmp "kill" in
  let rand = Random.State.make [| 0xd157; !seed |] in
  let kill =
    {
      Dist.k_worker = Random.State.int rand workers;
      k_after = 1 + Random.State.int rand (max 1 (min 6 (List.length all_cells - 1)));
      k_mode = `Abort;
    }
  in
  let killed =
    match
      Dist.run ~workers ~batch:!dist_batch ~policy ~kill ~resume:false ~force:false
        ~journal:jk ~solver:"bench-campaign" ~arg:all_arg all_cells
    with
    | Error _ -> true
    | Ok _ -> false (* campaign finished before the kill point: still fine *)
  in
  let rows_r, st_r = run_lane ~workers ~journal:jk ~arg:all_arg ~resume:true all_cells in
  sweep jk;
  let resume_flips = lane_flips "kill-resume" ~reference:!serial_rows rows_r in
  Printf.printf
    "kill/resume lane: worker %d SIGKILLed after %d ack(s)%s; resume merged %d \
     shard record(s), skipped %d, %d flip(s) vs serial%s\n"
    kill.Dist.k_worker kill.Dist.k_after
    (if killed then "" else " (campaign finished first)")
    st_r.Dist.d_merged st_r.Dist.d_skipped resume_flips
    (if resume_flips > 0 then "  VERDICT FLIP" else "");
  (* Supervised-restart lane: same kill, `Restart mode — the supervisor
     revives the worker and the run completes on its own. *)
  (match entries with
  | [] -> ()
  | e :: _ ->
      let cells = dist_cells e in
      let jr = tmp "restart" in
      let rows, st =
        run_lane
          ~kill:{ Dist.k_worker = 0; k_after = 1; k_mode = `Restart }
          ~workers ~journal:jr ~arg:e.Entry.name ~resume:false cells
      in
      sweep jr;
      let ref_rows = List.filteri (fun i _ -> i < List.length cells) !serial_rows in
      let flips = lane_flips "restart" ~reference:ref_rows rows in
      Printf.printf
        "restart lane (%s): worker 0 SIGKILLed after 1 ack, %d supervised \
         restart(s), %d give-up(s), %d flip(s)%s\n"
        e.Entry.name st.Dist.d_restarts st.Dist.d_gave_up flips
        (if flips > 0 then "  VERDICT FLIP" else ""));
  if flip_count "dist" = 0 then
    Printf.printf
      "serial, distributed, kill/resume and restart lanes: all %d cells agree\n"
      (List.length all_cells)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5);
    ("a1", a1); ("a2", a2); ("a3", a3); ("s1", s1);
    ("f1", f1); ("f2", f2); ("f3", f3);
    ("rob", rob); ("p1", p1); ("r2", r2); ("dist", dist_exp);
    ("obs", obs_exp); ("micro", micro);
  ]

let () =
  (* Dist workers are this binary re-exec'd: a worker invocation takes
     over here (recognized by its environment) before argv is parsed. *)
  Dist.worker_entry ();
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --jobs expects a positive integer";
            exit 2
      end
    | [ "--jobs" ] ->
        prerr_endline "bench: --jobs expects a positive integer";
        exit 2
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
    | "--no-escalate" :: rest ->
        escalate := false;
        parse_args acc rest
    | "--portfolio" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some w when w >= 1 ->
            portfolio_width := w;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --portfolio expects a positive integer";
            exit 2
      end
    | [ "--portfolio" ] ->
        prerr_endline "bench: --portfolio expects a positive integer";
        exit 2
    | "--no-share" :: rest ->
        portfolio_share := false;
        parse_args acc rest
    | "--workers" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some w when w >= 1 ->
            dist_workers := w;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --workers expects a positive integer";
            exit 2
      end
    | [ "--workers" ] ->
        prerr_endline "bench: --workers expects a positive integer";
        exit 2
    | "--batch" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some b when b >= 1 ->
            dist_batch := b;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --batch expects a positive integer";
            exit 2
      end
    | [ "--batch" ] ->
        prerr_endline "bench: --batch expects a positive integer";
        exit 2
    | "--max-restarts" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some r when r >= 0 ->
            dist_max_restarts := r;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --max-restarts expects a non-negative integer";
            exit 2
      end
    | [ "--max-restarts" ] ->
        prerr_endline "bench: --max-restarts expects a non-negative integer";
        exit 2
    | "--backoff" :: s :: rest -> begin
        match float_of_string_opt s with
        | Some b when b >= 0.0 ->
            dist_backoff := b;
            parse_args acc rest
        | _ ->
            prerr_endline "bench: --backoff expects a non-negative number of seconds";
            exit 2
      end
    | [ "--backoff" ] ->
        prerr_endline "bench: --backoff expects a non-negative number of seconds";
        exit 2
    | "--no-retry-oom" :: rest ->
        dist_retry_oom := false;
        parse_args acc rest
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
    | "--checkpoint" :: path :: rest ->
        checkpoint_path := Some path;
        parse_args acc rest
    | [ "--checkpoint" ] ->
        prerr_endline "bench: --checkpoint expects a file path";
        exit 2
    | "--resume" :: rest ->
        checkpoint_resume := true;
        parse_args acc rest
    | "--seed" :: s :: rest -> begin
        match int_of_string_opt s with
        | Some n ->
            seed := n;
            parse_args acc rest
        | None ->
            prerr_endline "bench: --seed expects an integer";
            exit 2
      end
    | [ "--seed" ] ->
        prerr_endline "bench: --seed expects an integer";
        exit 2
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
  (* The journal has its own guard (inside Campaign.start): an existing
     file needs --resume to continue or --force to start over, and
     --resume without a journal is an error, not a silent cold start. *)
  (match (!checkpoint_path, !checkpoint_resume) with
  | None, true ->
      prerr_endline "bench: --resume requires --checkpoint FILE";
      exit 2
  | None, false -> ()
  | Some path, resume -> (
      match Persist.Campaign.start ~resume ~force:!force_overwrite path with
      | Ok c -> campaign := Some c
      | Error msg ->
          prerr_endline ("bench: " ^ msg);
          exit 2));
  List.iter
    (fun id ->
      if not (List.mem_assoc id experiments) then begin
        Printf.eprintf "bench: unknown experiment %s (known: %s)\n" id
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    requested;
  Printf.printf "G-QED reproduction harness — %d experiment(s), %d job(s)\n"
    (List.length requested) !jobs;
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
  (match !campaign with
  | None -> ()
  | Some c ->
      let s = Persist.Campaign.stats c in
      Printf.printf
        "campaign journal %s: %d record(s) loaded (%d undecided), %d check(s) skipped, \
         %d appended%s%s\n"
        (Persist.Campaign.path c) s.Persist.Campaign.c_loaded
        s.Persist.Campaign.c_undecided_loaded (Atomic.get campaign_skips)
        s.Persist.Campaign.c_appended
        (if s.Persist.Campaign.c_recovered_bytes > 0 then
           Printf.sprintf " (%d corrupt tail byte(s) dropped)"
             s.Persist.Campaign.c_recovered_bytes
         else "")
        (if s.Persist.Campaign.c_write_errors > 0 then
           Printf.sprintf " (%d append(s) LOST to I/O errors)"
             s.Persist.Campaign.c_write_errors
         else "");
      Persist.Campaign.close c);
  let flips = List.rev !flips in
  List.iter (fun f -> prerr_endline ("bench: FLIP " ^ Report.flip_to_string f)) flips;
  let unknowns = Atomic.get unknown_verdicts in
  let code = Report.exit_code ~flips ~unknowns in
  if code = 1 then
    Printf.eprintf "bench: FAILED — %d verdict disagreement(s)\n" (List.length flips)
  else if code = 3 then
    (* Nothing wrong, but some verdicts stayed unknown under the
       --timeout/--max-conflicts budget. *)
    Printf.eprintf
      "bench: %d verdict(s) unknown under the configured budget (raise --timeout or \
       --max-conflicts, or drop --no-escalate)\n"
      unknowns;
  exit code

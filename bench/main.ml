(* Experiment harness: regenerates every table and figure of the
   (reconstructed) evaluation — see DESIGN.md section 4 and EXPERIMENTS.md
   for the experiment index and the mapping to the paper's claims.

   Usage:
     dune exec bench/main.exe                       # all experiments
     dune exec bench/main.exe -- t2 f1              # a subset, by id

   Experiment ids: t1 t2 t3 t4 t5 a1 a3 f1 f2 f3.

   Every check runs cold and unbudgeted: the harness keeps no journal
   and sets no per-query budget. A journaled, resumable mutant matrix
   is `gqed campaign --checkpoint FILE`; budgets are `gqed verify` and
   `gqed campaign`'s --timeout/--max-conflicts.

   --trace FILE enables the Obs layer for the whole run and writes the
   span trace (Chrome trace_event JSON, checkable with `gqed
   trace-check`) on completion. It refuses to overwrite an existing file
   (exit 2); remove the file to replace it.

   The exit status is the run's one gate. An experiment that compares a
   reference lane with a variant (t5) reports each
   disagreement as (experiment, cell, expected, got); the run lists them
   all at the end and exits 1 if there is any, else 0. An unknown
   experiment id or option exits 2. Machine-readable measurements live
   in bench/perf (see its README).

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
(* The verdict gate.                                                   *)

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
                   (Checks.run Checks.Aqed e.Entry.design e.Entry.iface
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
              && failed (Checks.run Checks.Aqed mutant e.Entry.iface ~bound)
            in
            let g = Checks.run Checks.Gqed_flow mutant e.Entry.iface ~bound in
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
        (e, Checks.run Checks.Gqed e.Entry.design e.Entry.iface
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
      let report = Checks.run Checks.Gqed e.Entry.design e.Entry.iface ~bound:6 in
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
          let report = Checks.run Checks.Gqed mutant e.Entry.iface ~bound:6 in
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
        let report =
          Checks.run Checks.Gqed mutant e.Entry.iface ~bound:e.Entry.rec_bound
        in
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
            let bound = e.Entry.rec_bound in
            let full = Checks.run Checks.Gqed mutant e.Entry.iface ~bound in
            let out_only = Checks.run Checks.Gqed_output_only mutant e.Entry.iface ~bound in
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
(* A3: ablation — monolithic vs decomposed verification (A-QED^2).      *)

let a3 () =
  header "A3  Ablation: monolithic vs decomposed verification (peak_accum)";
  let e = Registry.find "peak_accum" in
  let mono, t_mono =
    time (fun () ->
        Checks.run Checks.Gqed e.Entry.design e.Entry.iface ~bound:e.Entry.rec_bound)
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
        Checks.run Checks.Gqed e.Entry.design e.Entry.iface ~bound)
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
            time (fun () ->
                Checks.run Checks.Gqed_flow mutant e.Entry.iface ~bound:e.Entry.rec_bound)
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

let experiments =
  [
    ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5);
    ("a1", a1); ("a3", a3);
    ("f1", f1); ("f2", f2); ("f3", f3);
  ]

let () =
  let trace_path = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        parse_args acc rest
    | [ "--trace" ] ->
        prerr_endline "bench: --trace expects a file path";
        exit 2
    | id :: rest -> parse_args (id :: acc) rest
  in
  let requested =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | ids -> ids
  in
  List.iter
    (fun id ->
      if not (List.mem_assoc id experiments) then begin
        Printf.eprintf
          "bench: unknown experiment %s (known: %s; option: --trace FILE)\n" id
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    requested;
  (* Refusing to clobber an existing file beats discovering the loss after
     an hour-long run. *)
  Option.iter
    (fun path ->
      (match Obs.Export.guard path with
      | Error msg ->
          prerr_endline ("bench: " ^ msg);
          exit 2
      | Ok () -> (
          (* Fail fast on an unwritable path rather than after the run. *)
          try close_out (open_out path)
          with Sys_error e ->
            Printf.eprintf "bench: cannot write --trace file: %s\n" e;
            exit 2));
      Obs.enable ())
    !trace_path;
  Printf.printf "G-QED reproduction harness — %d experiment(s)\n" (List.length requested);
  List.iter
    (fun id ->
      let (), dt = time (List.assoc id experiments) in
      Printf.printf "[%s completed in %.1fs]\n%!" id dt)
    requested;
  Option.iter
    (fun path ->
      let evs = Obs.Trace.events () in
      Obs.Trace.write path evs;
      Printf.printf "trace written to %s (%d events)\n" path (List.length evs))
    !trace_path;
  let flips = List.rev !flips in
  List.iter (fun f -> prerr_endline ("bench: FLIP " ^ Report.flip_to_string f)) flips;
  let code = Report.exit_code ~flips in
  if code = 1 then
    Printf.eprintf "bench: FAILED — %d verdict disagreement(s)\n" (List.length flips);
  exit code

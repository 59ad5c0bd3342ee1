(* gqed — command-line driver for the G-QED verification library.

   Subcommands:
     gqed list                          list the benchmark designs
     gqed info DESIGN                   design + interface details
     gqed verify DESIGN [options]       run a QED check (optionally on a mutant)
     gqed campaign [DESIGN...] [options] journaled mutant matrix, serial or sharded
     gqed mutants DESIGN                list the mutation ids of a design
     gqed simulate DESIGN [options]     random simulation trace
     gqed crv DESIGN [options]          constrained-random baseline run
     gqed fuzz [options]                differential fuzz of the verifier itself *)

open Cmdliner

module Entry = Designs.Entry
module Registry = Designs.Registry
module Checks = Qed.Checks

let find_design name =
  match Registry.find name with
  | e -> Ok e
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown design %S (known: %s)" name
           (String.concat ", " Registry.names))

let resolve_mutant e = function
  | None -> Ok (e.Entry.design, None)
  | Some id -> begin
      match
        List.find_opt (fun m -> m.Mutation.id = id) (Mutation.enumerate e.Entry.design)
      with
      | None -> Error (Printf.sprintf "unknown mutant id %S (try `gqed mutants %s`)" id e.Entry.name)
      | Some m -> begin
          match Mutation.apply e.Entry.design m with
          | Some design -> Ok (design, Some m)
          | None -> Error (Printf.sprintf "mutant %S does not apply" id)
        end
    end

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc:"Design name.")

let mutant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutant" ] ~docv:"ID" ~doc:"Inject the mutation with this id first.")

let bound_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "bound" ] ~docv:"N"
        ~doc:"BMC unroll bound in cycles (default: the design's recommended bound).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("gqed: " ^ msg);
      exit 2

(* ---- list ---- *)

let list_cmd =
  let run () =
    Printf.printf "%-12s %-12s %s\n" "name" "class" "description";
    List.iter
      (fun e ->
        Printf.printf "%-12s %-12s %s\n" e.Entry.name
          (if e.Entry.interfering then "interfering" else "non-interf.")
          e.Entry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark designs.") Term.(const run $ const ())

(* ---- info ---- *)

let info_cmd =
  let run name =
    let e = or_die (find_design name) in
    let state_bits, input_bits, nodes = Rtl.stats e.Entry.design in
    Printf.printf "%s — %s\n" e.Entry.name e.Entry.description;
    Printf.printf "  class:       %s\n"
      (if e.Entry.interfering then "interfering" else "non-interfering");
    Printf.printf "  state bits:  %d\n" state_bits;
    Printf.printf "  input bits:  %d\n" input_bits;
    Printf.printf "  expr nodes:  %d\n" nodes;
    Printf.printf "  interface:   %s\n" (Format.asprintf "%a" Qed.Iface.pp e.Entry.iface);
    Printf.printf "  rec. bound:  %d\n" e.Entry.rec_bound;
    Printf.printf "  mutants:     %d\n" (List.length (Mutation.enumerate e.Entry.design))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show a design's details.")
    Term.(const run $ design_arg)

(* ---- verify ---- *)

(* The one technique vocabulary of [verify] and [campaign]. *)
let techniques =
  [
    ("gqed", Checks.Gqed); ("flow", Checks.Gqed_flow); ("aqed", Checks.Aqed);
    ("gqed-out", Checks.Gqed_output_only); ("sa", Checks.Sa);
    ("stability", Checks.Stability);
  ]

let technique_name t = fst (List.find (fun (_, t') -> t' = t) techniques)

let technique_arg =
  Arg.(
    value
    & opt (enum techniques) Checks.Gqed
    & info [ "technique" ] ~docv:"TECH"
        ~doc:
          "One of $(b,gqed) (default), $(b,flow) (reset+SA+stability+G-FC), \
           $(b,aqed), $(b,gqed-out) (ablation), $(b,sa), $(b,stability).")

(* Formula-shrinking pipeline knobs. The verdict never depends on these;
   they exist for ablation and debugging (see lib/bmc/bmc.mli). *)
let simplify_term =
  let no_simplify =
    Arg.(
      value & flag
      & info [ "no-simplify" ]
          ~doc:"Disable the whole formula-shrinking pipeline (AIG rewriting, \
                polarity-aware Tseitin, CNF preprocessing).")
  in
  let stage_flag name doc = Arg.(value & flag & info [ "no-" ^ name ] ~doc) in
  let combine off rewrite pg cnf =
    if off then Bmc.no_simplify
    else { Bmc.sc_rewrite = not rewrite; sc_pg = not pg; sc_cnf = not cnf }
  in
  Term.(
    const combine $ no_simplify
    $ stage_flag "rewrite" "Disable construction-time AIG rewriting."
    $ stage_flag "pg" "Disable polarity-aware (Plaisted-Greenbaum) Tseitin."
    $ stage_flag "cnf" "Disable CNF preprocessing (subsumption / strengthening / BVE).")

let simp_stats_flag =
  Arg.(
    value & flag
    & info [ "simp-stats" ]
        ~doc:"Print the formula-shrinking pipeline statistics after the verdict.")

(* Resource-governance knobs: one fixed budget per SAT query. A budget
   that runs out yields an Unknown verdict (exit code 3) instead of
   hanging; nothing retries it. *)
let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Per-query wall-clock budget in seconds. An exhausted budget turns the \
           verdict into $(b,unknown) (exit code 3) rather than hanging. It is not a \
           per-check or per-mutant cap: a check issues many queries, each with the \
           same fixed budget.")

let max_conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:
          "Per-query conflict budget, fixed for every query of the check; an \
           exhausted budget yields $(b,unknown) (exit code 3).")

let waveform_flag =
  Arg.(value & flag & info [ "waveform" ] ~doc:"Print the full counterexample waveform.")

let vcd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE" ~doc:"Write the waveform to $(docv) in VCD format.")

(* ---- observability ---- *)

(* The obs layer is disabled by default and costs one atomic load per guard
   when off. [--trace FILE] / [--metrics FILE] enable it for the whole run
   and flush through [at_exit], so the files are written whatever exit path
   the verdict takes (exit 0/1/3 all funnel through Stdlib.exit). *)
let obs_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable the observability layer and write the span trace to $(docv) \
           on exit. The format is chosen by $(b,--trace-format); the ndjson \
           form is checkable with $(b,gqed trace-check), the chrome form \
           loads in Perfetto / chrome://tracing.")

let obs_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the observability layer and write a JSON metrics snapshot \
           (counters, gauges, histograms) to $(docv) on exit.")

let obs_format_arg =
  let formats = [ ("ndjson", `Ndjson); ("chrome", `Chrome) ] in
  Arg.(
    value
    & opt (enum formats) `Ndjson
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Trace file format: $(b,ndjson) (default) or $(b,chrome).")

let setup_obs ~trace ~metrics ~format =
  if trace <> None || metrics <> None then begin
    Obs.enable ();
    at_exit (fun () ->
        (match trace with
        | None -> ()
        | Some path ->
            Obs.Trace.write ~format path (Obs.Trace.events ());
            Printf.eprintf "gqed: trace written to %s\n%!" path);
        match metrics with
        | None -> ()
        | Some path ->
            Obs.Metrics.write path (Obs.Metrics.snapshot ());
            Printf.eprintf "gqed: metrics written to %s\n%!" path)
  end

let verify_cmd =
  let report_and_exit ~name ~waveform ~vcd ~dt ~simp_stats report =
    Format.printf "%a@." Checks.pp_verdict report.Checks.verdict;
    Printf.printf "cnf: %d vars, %d clauses; %s; %.2fs\n" report.Checks.cnf_vars
      report.Checks.cnf_clauses
      (Format.asprintf "%a" Sat.Solver.pp_stats report.Checks.sat_stats)
      dt;
    if simp_stats then
      Format.printf "simplify: %a@." Bmc.Engine.pp_simp_stats report.Checks.simp;
    match report.Checks.verdict with
    | Checks.Pass _ -> exit 0
    | Checks.Unknown u ->
        Printf.printf "gave up: %s at cycle %d (raise --timeout/--max-conflicts)\n"
          (Sat.Solver.reason_to_string u.Checks.u_reason)
          u.Checks.u_bound;
        exit 3
    | Checks.Fail f ->
        if waveform then Format.printf "%a" Bmc.pp_witness f.Checks.witness;
        (match vcd with
        | Some path ->
            Vcd.to_file path (Vcd.of_witness ~design_name:name f.Checks.witness);
            Printf.printf "waveform written to %s\n" path
        | None -> ());
        exit 1
  in
  let run name technique bound mutant waveform vcd simplify simp_stats timeout
      max_conflicts obs_trace obs_metrics obs_format =
    setup_obs ~trace:obs_trace ~metrics:obs_metrics ~format:obs_format;
    let e = or_die (find_design name) in
    let bound = Option.value bound ~default:e.Entry.rec_bound in
    let design, m = or_die (resolve_mutant e mutant) in
    (match m with
    | Some m -> Printf.printf "injected mutation: %s (%s)\n" m.Mutation.id m.Mutation.description
    | None -> ());
    let budget = Sat.Solver.budget ?conflicts:max_conflicts ?seconds:timeout () in
    let t0 = Unix.gettimeofday () in
    let report = Checks.run ~simplify ~budget technique design e.Entry.iface ~bound in
    let dt = Unix.gettimeofday () -. t0 in
    report_and_exit ~name ~waveform ~vcd ~dt ~simp_stats report
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run one QED check on a design (or one of its mutants).")
    Term.(
      const run $ design_arg $ technique_arg $ bound_arg $ mutant_arg $ waveform_flag
      $ vcd_arg $ simplify_term $ simp_stats_flag $ timeout_arg $ max_conflicts_arg
      $ obs_trace_arg $ obs_metrics_arg $ obs_format_arg)

(* ---- campaign ---- *)

(* The one matrix runner: every (design, mutant) cell of the chosen
   designs, solved across N worker processes with pull-based batching
   (or in-process with --workers 1) and journaled by the coordinator into
   one checkpoint (see lib/dist/DESIGN.md). Workers are this executable
   re-exec'd, so the solver rebuilds its key -> task table and its
   per-query budget from the [arg] string alone. *)

(* One task per cell: display label, campaign cell, and what the solver
   needs to re-run it. Deterministic from (technique, bound override,
   design names) — the worker rebuilds exactly this list from the arg. *)
let campaign_tasks ~technique ~bound_override names =
  let entries =
    match names with
    | [] -> Registry.all
    | names ->
        List.map
          (fun n ->
            match find_design n with Ok e -> e | Error msg -> failwith msg)
          names
  in
  List.concat_map
    (fun e ->
      let bound = Option.value bound_override ~default:e.Entry.rec_bound in
      let tasks =
        (e.Entry.name, e.Entry.design)
        :: List.map
             (fun (m, d) -> (e.Entry.name ^ ":" ^ m.Mutation.id, d))
             (Mutation.mutants e.Entry.design)
      in
      List.map
        (fun (label, d) ->
          ( label,
            {
              Dist.cell_key = Checks.campaign_key technique d e.Entry.iface ~bound;
              cell_hint = Checks.campaign_hint d ~bound;
            },
            d,
            e.Entry.iface,
            bound ))
        tasks)
    entries

(* arg = "<tech>|<bound>|<timeout>|<max-conflicts>|<names>": "-" for an
   unset bound or budget, names comma-separated (empty for all). *)
type campaign_spec = {
  cs_technique : Checks.technique;
  cs_bound : int option;
  cs_timeout : float option;
  cs_max_conflicts : int option;
  cs_names : string list;
}

let campaign_arg_encode spec =
  let opt f = function None -> "-" | Some v -> f v in
  String.concat "|"
    [
      technique_name spec.cs_technique;
      opt string_of_int spec.cs_bound;
      (* %.17g round-trips the float exactly. *)
      opt (Printf.sprintf "%.17g") spec.cs_timeout;
      opt string_of_int spec.cs_max_conflicts;
      String.concat "," spec.cs_names;
    ]

let campaign_arg_decode arg =
  match String.split_on_char '|' arg with
  | [ tech; bound; timeout; max_conflicts; names ] ->
      let opt f = function "-" -> None | v -> Some (f v) in
      {
        cs_technique =
          (match List.assoc_opt tech techniques with
          | Some t -> t
          | None -> failwith ("bad campaign technique " ^ tech));
        cs_bound = opt int_of_string bound;
        cs_timeout = opt float_of_string timeout;
        cs_max_conflicts = opt int_of_string max_conflicts;
        cs_names = (if names = "" then [] else String.split_on_char ',' names);
      }
  | _ -> failwith ("bad campaign arg " ^ arg)

let campaign_tables : (string, (string, Rtl.design * Qed.Iface.t * int) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 4

let campaign_solver ~arg key =
  let spec = campaign_arg_decode arg in
  let table =
    match Hashtbl.find_opt campaign_tables arg with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 64 in
        List.iter
          (fun (_label, cell, d, iface, bound) ->
            Hashtbl.replace t cell.Dist.cell_key (d, iface, bound))
          (campaign_tasks ~technique:spec.cs_technique ~bound_override:spec.cs_bound
             spec.cs_names);
        Hashtbl.add campaign_tables arg t;
        t
  in
  match Hashtbl.find_opt table key with
  | None -> failwith ("campaign worker: unknown cell key " ^ key)
  | Some (d, iface, bound) ->
      let budget =
        Sat.Solver.budget ?conflicts:spec.cs_max_conflicts ?seconds:spec.cs_timeout ()
      in
      let r = Checks.run ~budget spec.cs_technique d iface ~bound in
      (Checks.report_decided r, Checks.encode_report r)

let () = Dist.register "campaign" campaign_solver

let campaign_cmd =
  let designs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DESIGN"
          ~doc:"Designs to campaign over (default: every registry design).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Shard the campaign across $(docv) worker processes (default: the \
             machine's core count). $(b,1) solves in-process — the serial \
             baseline with the same journal and the same verdicts.")
  in
  let batch_arg =
    Arg.(
      value & opt int 2
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Cells a worker may hold unacked (pull-based dynamic batching); \
             small keeps the hardest-first queue adaptive, large amortizes \
             protocol chatter.")
  in
  let no_sync_arg =
    Arg.(
      value & flag
      & info [ "no-sync" ]
          ~doc:
            "Skip the per-record fsync in the campaign journal (faster; a power \
             loss may drop the last records, a mere SIGKILL cannot).")
  in
  (* Campaign persistence (see lib/persist/DESIGN.md): the coordinator
     journals every cell's verdict to a crash-safe write-ahead log; a
     resumed run skips the cells already decided and reproduces the
     uninterrupted verdict matrix bit-for-bit. *)
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Journal every cell's verdict to the crash-safe log $(docv) \
             (required). A killed campaign can then be continued with \
             $(b,--resume), skipping the already-decided cells; journaled \
             $(b,unknown) verdicts are always re-attempted. Refuses an existing \
             journal unless $(b,--resume) or $(b,--force).")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue the campaign journaled at $(b,--checkpoint): decided \
             cells are answered from the journal, the rest run as usual. A \
             missing journal is an error, not a silent cold start.")
  in
  let force_flag =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:"Allow starting a fresh campaign over an existing $(b,--checkpoint) journal.")
  in
  let run names technique bound timeout max_conflicts workers batch no_sync
      checkpoint resume force obs_trace obs_metrics obs_format =
    setup_obs ~trace:obs_trace ~metrics:obs_metrics ~format:obs_format;
    if workers < 1 then begin
      prerr_endline "gqed: --workers must be a positive integer";
      exit 2
    end;
    if batch < 1 then begin
      prerr_endline "gqed: --batch must be a positive integer";
      exit 2
    end;
    let checkpoint =
      match checkpoint with
      | Some path -> path
      | None ->
          prerr_endline "gqed: campaign requires --checkpoint FILE (the shared journal)";
          exit 2
    in
    let tasks =
      try campaign_tasks ~technique ~bound_override:bound names
      with Failure msg ->
        prerr_endline ("gqed: " ^ msg);
        exit 2
    in
    let label_of = Hashtbl.create 64 in
    List.iter
      (fun (label, cell, _, _, _) ->
        if not (Hashtbl.mem label_of cell.Dist.cell_key) then
          Hashtbl.add label_of cell.Dist.cell_key label)
      tasks;
    let cells = List.map (fun (_, cell, _, _, _) -> cell) tasks in
    let arg =
      campaign_arg_encode
        {
          cs_technique = technique;
          cs_bound = bound;
          cs_timeout = timeout;
          cs_max_conflicts = max_conflicts;
          cs_names = names;
        }
    in
    match
      Dist.run ~workers ~batch ~sync:(not no_sync) ~arg ~resume ~force
        ~journal:checkpoint ~solver:"campaign" cells
    with
    | Error msg ->
        prerr_endline ("gqed: " ^ msg);
        exit 2
    | Ok (rows, stats) ->
        Printf.printf "%-40s %-18s %9s %s\n" "cell" "verdict" "time" "";
        let undecided = ref 0 and anomalies = ref 0 in
        List.iter
          (fun (r : Dist.row) ->
            let label =
              Option.value ~default:r.Dist.r_key
                (Hashtbl.find_opt label_of r.Dist.r_key)
            in
            (* A correct design must pass; a mutant must be detected. *)
            let is_mutant = String.contains label ':' in
            let cellv =
              if not r.Dist.r_decided then begin
                incr undecided;
                "unknown"
              end
              else
                match Checks.decode_report r.Dist.r_payload with
                | None ->
                    incr undecided;
                    "undecodable"
                | Some report -> (
                    match report.Checks.verdict with
                    | Checks.Fail _ ->
                        if is_mutant then "detected"
                        else begin
                          incr anomalies;
                          "FAIL"
                        end
                    | Checks.Pass _ ->
                        if is_mutant then begin
                          incr anomalies;
                          "ESCAPE"
                        end
                        else "pass"
                    | Checks.Unknown _ ->
                        incr undecided;
                        "unknown")
            in
            Printf.printf "%-40s %-18s %8.2fs%s\n" label cellv r.Dist.r_seconds
              (if r.Dist.r_warm then "  (journal)" else ""))
          rows;
        Printf.printf "campaign: %d cell(s), %d from journal, %d dispatched %s\n"
          stats.Dist.d_cells stats.Dist.d_skipped stats.Dist.d_dispatched
          (if stats.Dist.d_workers = 0 then "in-process"
           else Printf.sprintf "across %d worker(s)" stats.Dist.d_workers);
        if stats.Dist.d_restarts + stats.Dist.d_gave_up + stats.Dist.d_degraded > 0 then
          Printf.printf
            "supervisor: %d restart(s), %d give-up(s), %d cell(s) solved degraded\n"
            stats.Dist.d_restarts stats.Dist.d_gave_up stats.Dist.d_degraded;
        let cs = stats.Dist.d_campaign in
        (* Damage never changes a verdict (a lost append is re-run on
           resume), but a run that lost records is not fully journaled. *)
        let damage =
          List.filter_map
            (fun (n, what) -> if n > 0 then Some (Printf.sprintf "%d %s" n what) else None)
            [
              (cs.Persist.Campaign.c_write_errors, "append(s) LOST to I/O errors");
              (cs.Persist.Campaign.c_recovered_bytes, "corrupt tail byte(s) dropped");
            ]
        in
        if damage <> [] then Printf.printf "journal: %s\n" (String.concat ", " damage);
        exit (if !undecided > 0 then 3 else if !anomalies > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a mutant-detection matrix: every (design, mutant) cell checked \
          once, sharded across worker processes (or in-process with \
          $(b,--workers) 1), each verdict journaled by the coordinator into a \
          resumable checkpoint. Kill it anytime; $(b,--resume) reproduces the \
          uninterrupted verdict matrix bit-for-bit.")
    Term.(
      const run $ designs_arg $ technique_arg $ bound_arg $ timeout_arg
      $ max_conflicts_arg $ workers_arg $ batch_arg $ no_sync_arg $ checkpoint_arg
      $ resume_flag $ force_flag $ obs_trace_arg $ obs_metrics_arg $ obs_format_arg)

(* ---- mutants ---- *)

let mutants_cmd =
  let run name =
    let e = or_die (find_design name) in
    List.iter
      (fun (m, _) ->
        Printf.printf "%-40s %-12s %s\n" m.Mutation.id
          (Mutation.class_to_string (Mutation.class_of m.Mutation.operator))
          m.Mutation.description)
      (Mutation.mutants e.Entry.design)
  in
  Cmd.v
    (Cmd.info "mutants" ~doc:"List applicable mutations of a design.")
    Term.(const run $ design_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let cycles_arg =
    Arg.(value & opt int 10 & info [ "cycles" ] ~docv:"N" ~doc:"Number of cycles.")
  in
  let run name cycles seed vcd =
    let e = or_die (find_design name) in
    let rand = Random.State.make [| seed |] in
    let inputs =
      List.init cycles (fun _ ->
          if Random.State.float rand 1.0 < 0.2 then Entry.idle_valuation e
          else Entry.operand_valuation e ~valid:true (e.Entry.sample_operand rand))
    in
    let trace = Rtl.simulate e.Entry.design inputs in
    Format.printf "%a" Rtl.pp_trace trace;
    match vcd with
    | Some path ->
        Vcd.to_file path (Vcd.of_trace ~design_name:name trace);
        Printf.printf "waveform written to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a random simulation and print the waveform.")
    Term.(const run $ design_arg $ cycles_arg $ seed_arg $ vcd_arg)

(* ---- crv ---- *)

let crv_cmd =
  let budget_arg =
    Arg.(value & opt int 1000 & info [ "budget" ] ~docv:"N" ~doc:"Transaction budget.")
  in
  let run name mutant budget seed =
    let e = or_die (find_design name) in
    let design, m = or_die (resolve_mutant e mutant) in
    (match m with
    | Some m -> Printf.printf "injected mutation: %s\n" m.Mutation.id
    | None -> ());
    let outcome =
      Testbench.Crv.run ~design_override:design e
        { Testbench.Crv.seed; max_transactions = budget; idle_prob = 0.2 }
    in
    Format.printf "%a@." Testbench.Crv.pp_outcome outcome;
    exit (if outcome.Testbench.Crv.detected then 1 else 0)
  in
  Cmd.v
    (Cmd.info "crv" ~doc:"Run the constrained-random baseline against the golden model.")
    Term.(const run $ design_arg $ mutant_arg $ budget_arg $ seed_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of random designs to generate.")
  in
  let cert_flag =
    Arg.(
      value & flag
      & info [ "cert" ]
          ~doc:
            "Certify every UNSAT answer of the BMC oracles with a DRAT proof \
             checked by the independent in-repo checker.")
  in
  let dimacs_arg =
    Arg.(
      value & opt int 0
      & info [ "dimacs" ] ~docv:"N"
          ~doc:
            "Additionally fuzz the SAT solver on $(docv) random DIMACS instances \
             (cross-checked against an exhaustive enumerator).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "fuzz-failures"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for shrunk failing designs (created on first failure).")
  in
  let run seed count cert dimacs_count out =
    Printf.printf "fuzzing %d designs (seed %d, certification %s)\n%!" count seed
      (if cert then "on" else "off");
    let summary =
      Fuzz.run ~out_dir:out
        ~progress:(fun i ->
          if (i + 1) mod 50 = 0 then Printf.printf "  %d/%d designs done\n%!" (i + 1) count)
        ~seed ~count ~cert ()
    in
    List.iter
      (fun (f : Fuzz.failure) ->
        Printf.printf "FAIL case %d, oracle %s: %s\n" f.Fuzz.case f.Fuzz.oracle
          f.Fuzz.message;
        (match f.Fuzz.file with
        | Some path -> Printf.printf "  shrunk reproducer written to %s\n" path
        | None -> ());
        print_string (Fuzz.design_to_string f.Fuzz.design))
      summary.Fuzz.failures;
    let dimacs_bad =
      if dimacs_count > 0 then begin
        Printf.printf "fuzzing %d DIMACS instances\n%!" dimacs_count;
        let bad = Fuzz.dimacs ~seed ~count:dimacs_count ~cert () in
        List.iter
          (fun (i, msg) -> Printf.printf "FAIL dimacs instance %d: %s\n" i msg)
          bad;
        List.length bad
      end
      else 0
    in
    Printf.printf "%d cases, %d failures" summary.Fuzz.cases
      (List.length summary.Fuzz.failures + dimacs_bad);
    if cert then
      Printf.printf ", %d UNSAT bounds DRAT-certified" summary.Fuzz.certified_unsats;
    print_newline ();
    exit (if summary.Fuzz.failures = [] && dimacs_bad = 0 then 0 else 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the verification stack itself: random well-typed \
          designs through independent simulator/BMC/AIG/solver paths, with \
          optional DRAT certification of every UNSAT verdict.")
    Term.(const run $ seed_arg $ count_arg $ cert_flag $ dimacs_arg $ out_arg)

(* ---- trace-check ---- *)

let trace_check_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,--trace) (ndjson or chrome).")
  in
  let run file =
    match Obs.Trace.validate_file file with
    | Ok n ->
        Printf.printf "%s: %d events, well-formed\n" file n;
        exit 0
    | Error msg ->
        Printf.eprintf "gqed: %s: %s\n" file msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a trace file's structural well-formedness: strictly \
          increasing sequence numbers, per-domain monotone timestamps, and \
          balanced begin/end span nesting.")
    Term.(const run $ file_arg)

let () =
  (* Campaign workers are this binary re-exec'd: a worker invocation
     (recognized by its environment) takes over before cmdliner runs. *)
  Dist.worker_entry ();
  let info =
    Cmd.info "gqed" ~version:"1.0.0"
      ~doc:"G-QED pre-silicon verification of (interfering) hardware accelerators"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; info_cmd; verify_cmd; campaign_cmd; mutants_cmd; simulate_cmd;
            crv_cmd; fuzz_cmd; trace_check_cmd;
          ]))

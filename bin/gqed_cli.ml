(* gqed — command-line driver for the G-QED verification library.

   Subcommands:
     gqed list                          list the benchmark designs
     gqed info DESIGN                   design + interface details
     gqed verify DESIGN [options]       run a QED check (optionally on a mutant)
     gqed campaign [DESIGN...] [options] distributed mutant campaign with checkpointing
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

let technique_arg =
  let techniques =
    [
      ("flow", `Flow); ("gqed", `Gqed); ("aqed", `Aqed); ("gqed-out", `Gqed_out);
      ("sa", `Sa); ("stability", `Stability);
    ]
  in
  Arg.(
    value
    & opt (enum techniques) `Gqed
    & info [ "technique" ] ~docv:"TECH"
        ~doc:
          "One of $(b,gqed) (default), $(b,flow) (reset+SA+stability+G-FC), \
           $(b,aqed), $(b,gqed-out) (ablation), $(b,sa), $(b,stability).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run independent checks on $(docv) domains. With $(b,--technique flow) \
           the four flow stages run concurrently; with $(b,--all-mutants) the \
           per-mutant checks fan out. Verdicts are identical to the serial run.")

let all_mutants_flag =
  Arg.(
    value
    & flag
    & info [ "all-mutants" ]
        ~doc:"Run the chosen technique on every mutant of the design and print a table.")

(* Formula-shrinking pipeline knobs. The verdict never depends on these;
   they exist for ablation and debugging (see lib/bmc/bmc.mli). *)
let simplify_term =
  let no_simplify =
    Arg.(
      value & flag
      & info [ "no-simplify" ]
          ~doc:"Disable the whole formula-shrinking pipeline (COI, AIG rewriting, \
                polarity-aware Tseitin, CNF preprocessing).")
  in
  let stage_flag name doc = Arg.(value & flag & info [ "no-" ^ name ] ~doc) in
  let combine off coi rewrite pg cnf =
    if off then Bmc.no_simplify
    else
      {
        Bmc.sc_coi = not coi;
        sc_rewrite = not rewrite;
        sc_pg = not pg;
        sc_cnf = not cnf;
      }
  in
  Term.(
    const combine $ no_simplify
    $ stage_flag "coi" "Disable cone-of-influence reduction."
    $ stage_flag "rewrite" "Disable AIG rewriting and per-query compaction."
    $ stage_flag "pg" "Disable polarity-aware (Plaisted-Greenbaum) Tseitin."
    $ stage_flag "cnf" "Disable CNF preprocessing (subsumption / strengthening / BVE).")

let mono_flag =
  Arg.(
    value & flag
    & info [ "mono" ]
        ~doc:
          "Monolithic mode: blast the design once, run every SAT query on a fresh \
           solver. Unlocks the per-query compaction and variable-elimination \
           stages of the pipeline; same verdicts as the incremental default.")

let simp_stats_flag =
  Arg.(
    value & flag
    & info [ "simp-stats" ]
        ~doc:"Print the formula-shrinking pipeline statistics after the verdict.")

(* Resource-governance knobs. A budget that runs out yields an Unknown
   verdict (exit code 3) instead of hanging; escalation retries undecided
   checks with exponentially grown budgets and perturbed configurations. *)
let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Per-query wall-clock budget in seconds. An exhausted budget turns the \
           verdict into $(b,unknown) (exit code 3) rather than hanging; with \
           $(b,--all-mutants) it also bounds each mutant's task via a watchdog.")

let max_conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:"Per-query conflict budget; exhausted budgets yield $(b,unknown).")

let no_escalate_flag =
  Arg.(
    value & flag
    & info [ "no-escalate" ]
        ~doc:
          "Give up after the first undecided attempt instead of retrying with \
           exponentially grown budgets and perturbed configurations.")

(* Portfolio knobs: intra-query parallelism racing diversified solvers on
   every SAT query (see lib/sat/PORTFOLIO.md). *)
let portfolio_arg =
  Arg.(
    value & opt int 1
    & info [ "portfolio" ] ~docv:"N"
        ~doc:
          "Race $(docv) diversified clause-sharing CDCL workers on every SAT \
           query; the first decisive worker wins and its verdict is certified \
           exactly like the single-solver lane. $(b,1) (default) keeps the \
           plain single solver. With finite budgets and escalation on, the \
           ladder's rungs race concurrently instead of sequentially.")

let no_share_flag =
  Arg.(
    value & flag
    & info [ "no-share" ]
        ~doc:"Disable learnt-clause sharing between portfolio workers (pure race).")

let deterministic_flag =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Reproducible portfolio: no clause sharing, every worker runs to \
           completion, lowest decided worker index wins — the same worker \
           count and seed always give the same winner and stats.")

(* Campaign persistence (see lib/persist/DESIGN.md): journal every check's
   verdict to a crash-safe write-ahead log; a resumed run skips the keys
   already decided and reproduces the uninterrupted output bit-for-bit. *)
let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal every check's verdict to the crash-safe log $(docv) as the \
           run progresses. A killed run can then be continued with \
           $(b,--resume), skipping the already-decided checks; journaled \
           $(b,unknown) verdicts are always re-attempted. Refuses an existing \
           journal unless $(b,--resume) or $(b,--force).")

let resume_flag =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue the campaign journaled at $(b,--checkpoint): decided \
           checks are answered from the journal, the rest run as usual. A \
           missing journal is an error, not a silent cold start.")

let cli_force_flag =
  Arg.(
    value & flag
    & info [ "force" ]
        ~doc:"Allow starting a fresh campaign over an existing $(b,--checkpoint) journal.")

(* Supervision knobs, shared by verify --all-mutants (in-process domain
   workers) and campaign --workers (worker processes): both paths run
   the same restart policy. *)
let policy_term =
  let d = Par.Supervise.default_policy in
  let max_restarts_arg =
    Arg.(
      value
      & opt int d.Par.Supervise.max_restarts
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Restart a crashed worker at most $(docv) times before degrading it \
             to a typed give-up.")
  in
  let backoff_arg =
    Arg.(
      value
      & opt float d.Par.Supervise.backoff_s
      & info [ "backoff" ] ~docv:"SEC"
          ~doc:
            "Base delay before a worker restart; doubles per consecutive restart \
             (capped).")
  in
  let no_retry_oom_arg =
    Arg.(
      value & flag
      & info [ "no-retry-oom" ]
          ~doc:
            "Never restart a worker that died of memory exhaustion — an OOM task \
             would only OOM again; its cell degrades to $(b,unknown) and is \
             re-attempted on $(b,--resume).")
  in
  let combine max_restarts backoff_s no_retry_oom =
    if max_restarts < 0 then begin
      prerr_endline "gqed: --max-restarts must be non-negative";
      exit 2
    end;
    {
      Par.Supervise.max_restarts;
      backoff_s;
      backoff_cap_s = Float.max backoff_s d.Par.Supervise.backoff_cap_s;
      retry_oom = not no_retry_oom;
    }
  in
  Term.(const combine $ max_restarts_arg $ backoff_arg $ no_retry_oom_arg)

let start_campaign ~checkpoint ~resume ~force =
  match checkpoint with
  | None ->
      if resume then begin
        prerr_endline "gqed: --resume requires --checkpoint FILE";
        exit 2
      end;
      None
  | Some path -> (
      match Persist.Campaign.start ~resume ~force path with
      | Error msg ->
          prerr_endline ("gqed: " ^ msg);
          exit 2
      | Ok c ->
          (* Every verdict path funnels through Stdlib.exit, so the summary
             and the final fsync/close always happen. *)
          at_exit (fun () ->
              let s = Persist.Campaign.stats c in
              Printf.eprintf
                "gqed: campaign journal %s: %d record(s) loaded (%d undecided), %d \
                 check(s) skipped, %d appended%s\n\
                 %!"
                path s.Persist.Campaign.c_loaded s.Persist.Campaign.c_undecided_loaded
                s.Persist.Campaign.c_hits s.Persist.Campaign.c_appended
                (if s.Persist.Campaign.c_write_errors > 0 then
                   Printf.sprintf " (%d append(s) LOST to I/O errors)"
                     s.Persist.Campaign.c_write_errors
                 else "");
              Persist.Campaign.close c);
          Some c)

let portfolio_config ~portfolio ~no_share ~deterministic =
  if portfolio <= 1 then None
  else
    Some
      (Sat.Portfolio.config ~workers:portfolio ~share:(not no_share)
         ~deterministic ())

let limits_of ?cancel ?portfolio ~timeout ~max_conflicts () =
  match (timeout, max_conflicts, cancel, portfolio) with
  | None, None, None, None -> Bmc.no_limits
  | _ ->
      Bmc.limits
        ~budget:(Sat.Solver.budget ?conflicts:max_conflicts ?seconds:timeout ())
        ?cancel ?portfolio ()

(* Wrap any check in the escalation policy; with unbounded limits the first
   attempt decides and this is exactly the plain call. [racing] races the
   ladder's rungs concurrently ([jobs] wide) instead of climbing them. *)
let with_escalation ~escalate ?(racing = false) ?jobs ~limits ~simplify ~mono run1 =
  if not escalate then run1 ~simplify ~mono ~limits
  else begin
    let unknown_of (r : Checks.report) =
      match r.Checks.verdict with
      | Checks.Unknown u -> Some (Sat.Solver.reason_to_string u.Checks.u_reason)
      | Checks.Pass _ | Checks.Fail _ -> None
    in
    let escalate_fn =
      if racing then Bmc.Escalate.run_racing ?jobs else Bmc.Escalate.run
    in
    let report, attempts =
      escalate_fn ~limits ~simplify ~mono ~unknown_of (fun cfg ->
          run1 ~simplify:cfg.Bmc.Escalate.ec_simplify ~mono:cfg.Bmc.Escalate.ec_mono
            ~limits:cfg.Bmc.Escalate.ec_limits)
    in
    { report with Checks.attempts }
  end

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
    (match report.Checks.attempts with
    | [] | [ _ ] -> ()
    | attempts ->
        Printf.printf "escalation (%d attempts):\n" (List.length attempts);
        List.iter (fun a -> Format.printf "  %a@." Bmc.Escalate.pp_attempt a) attempts);
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
  let run name technique bound mutant all_mutants jobs waveform vcd simplify mono
      simp_stats timeout max_conflicts no_escalate portfolio no_share deterministic
      checkpoint resume force policy obs_trace obs_metrics obs_format =
    setup_obs ~trace:obs_trace ~metrics:obs_metrics ~format:obs_format;
    if jobs < 1 then begin
      prerr_endline "gqed: --jobs must be a positive integer";
      exit 2
    end;
    if portfolio < 1 then begin
      prerr_endline "gqed: --portfolio must be a positive integer";
      exit 2
    end;
    (* Never oversubscribe: the product of the outer fan-out and the
       per-query portfolio is capped at the machine's domain count. *)
    let portfolio =
      let clamped, did = Par.clamp_inner ~jobs ~inner:portfolio in
      if did then
        Printf.eprintf
          "gqed: warning: --jobs %d x --portfolio %d exceeds %d cores; portfolio \
           clamped to %d\n\
           %!"
          jobs portfolio (Par.default_jobs ()) clamped;
      clamped
    in
    let e = or_die (find_design name) in
    let bound = Option.value bound ~default:e.Entry.rec_bound in
    let escalate = not no_escalate in
    let pconfig = portfolio_config ~portfolio ~no_share ~deterministic in
    (* With finite budgets the escalation ladder itself becomes the
       parallelism: rungs race portfolio-wide (and drop the nested
       per-query portfolio). With unbounded budgets the first attempt
       decides, so the per-query clause-sharing portfolio does the work. *)
    let racing = portfolio > 1 && (timeout <> None || max_conflicts <> None) in
    let campaign = start_campaign ~checkpoint ~resume ~force in
    (* SA and stability have no Checks.technique id, so --checkpoint runs
       them fresh each time; everything else journals under the canonical
       campaign key. *)
    let campaign_key_of technique design =
      let tech =
        match technique with
        | `Gqed -> Some Checks.Gqed
        | `Aqed -> Some Checks.Aqed
        | `Gqed_out -> Some Checks.Gqed_output_only
        | `Flow -> Some Checks.Gqed_flow
        | `Sa | `Stability -> None
      in
      Option.map (fun t -> Checks.campaign_key t design e.Entry.iface ~bound) tech
    in
    let check ?cancel technique design =
      let limits = limits_of ?cancel ?portfolio:pconfig ~timeout ~max_conflicts () in
      let run1 ~simplify ~mono ~limits =
        match technique with
        | `Gqed -> Checks.gqed ~simplify ~mono ~limits design e.Entry.iface ~bound
        | `Flow -> Checks.flow ~simplify ~mono ~limits design e.Entry.iface ~bound
        | `Aqed ->
            Checks.aqed_fc ~simplify ~mono ~limits design e.Entry.iface ~bound
        | `Gqed_out ->
            Checks.gqed_output_only ~simplify ~mono ~limits design e.Entry.iface
              ~bound
        | `Sa -> Checks.sa_check ~simplify ~mono ~limits design e.Entry.iface ~bound
        | `Stability ->
            Checks.stability_check ~simplify ~mono ~limits design e.Entry.iface
              ~bound
      in
      let solve () =
        with_escalation ~escalate ~racing ~jobs:portfolio ~limits ~simplify ~mono run1
      in
      match (campaign, campaign_key_of technique design) with
      | None, _ | _, None -> solve ()
      | Some c, Some key -> (
          match
            Option.bind (Persist.Campaign.find_decided c key) Checks.decode_report
          with
          | Some report -> report
          | None ->
              let report = solve () in
              Persist.Campaign.record c ~decided:(Checks.report_decided report) ~key
                ~payload:(Checks.encode_report report);
              report)
    in
    if all_mutants then begin
      (match mutant with
      | Some _ ->
          prerr_endline "gqed: --mutant and --all-mutants are mutually exclusive";
          exit 2
      | None -> ());
      let muts =
        List.filter_map
          (fun m ->
            match Mutation.apply e.Entry.design m with
            | Some design -> Some (m, design)
            | None -> None)
          (Mutation.enumerate e.Entry.design)
      in
      (* Each task builds its own engine inside the check, so mutants fan out
         across domains with no shared solver state. Under --timeout a
         watchdog cancels any task past its allowance, so one hung mutant
         never blocks the whole table — it just shows up as "unknown". The
         supervisor restarts crashed/OOM'd workers with capped backoff and
         degrades exhausted ones to a typed give-up, so one bad task never
         takes the campaign down. *)
      let results =
        Par.Supervise.supervise ~jobs ?deadline:timeout ~policy
          (fun token (_, design) -> check ~cancel:token technique design)
          muts
      in
      Printf.printf "%-40s %-18s %9s\n" "mutant" "verdict" "time";
      let detected = ref 0 and unknown = ref 0 and restarts = ref 0 in
      List.iter2
        (fun (m, _) o ->
          restarts := !restarts + o.Par.Supervise.s_attempts - 1;
          let cell =
            match o.Par.Supervise.s_result with
            | Ok report -> (
                match report.Checks.verdict with
                | Checks.Fail _ ->
                    incr detected;
                    "detected"
                | Checks.Pass _ -> "ESCAPE"
                | Checks.Unknown _ ->
                    incr unknown;
                    "unknown")
            | Error cls ->
                incr unknown;
                "gave-up:" ^ Par.Supervise.class_to_string cls
          in
          Printf.printf "%-40s %-18s %8.2fs\n" m.Mutation.id cell
            o.Par.Supervise.s_seconds)
        muts results;
      Printf.printf "detected %d/%d mutants (%d unknown)\n" !detected
        (List.length muts) !unknown;
      if !restarts > 0 then
        Printf.printf "supervisor: %d worker restart(s) during the campaign\n" !restarts;
      exit
        (if !detected = List.length muts then 0 else if !unknown > 0 then 3 else 1)
    end;
    let design, m = or_die (resolve_mutant e mutant) in
    (match m with
    | Some m -> Printf.printf "injected mutation: %s (%s)\n" m.Mutation.id m.Mutation.description
    | None -> ());
    let t0 = Unix.gettimeofday () in
    let report =
      match technique with
      | `Flow when jobs > 1 ->
          (* Run the flow stages concurrently instead of sequentially.  The
             reported verdict is the first failing stage in flow order (or the
             final G-FC report when all pass), identical to Checks.flow. *)
          let stage run1 () =
            with_escalation ~escalate ~racing ~jobs:portfolio
              ~limits:(limits_of ?portfolio:pconfig ~timeout ~max_conflicts ())
              ~simplify ~mono run1
          in
          let stages =
            [
              ( "reset",
                stage (fun ~simplify ~mono ~limits ->
                    Checks.reset_check ~simplify ~mono ~limits design e.Entry.iface) );
              ( "single-action",
                stage (fun ~simplify ~mono ~limits ->
                    Checks.sa_check ~simplify ~mono ~limits design e.Entry.iface
                      ~bound) );
            ]
            @ (if Qed.Iface.is_variable_latency e.Entry.iface then []
               else
                 [
                   ( "stability",
                     stage (fun ~simplify ~mono ~limits ->
                         Checks.stability_check ~simplify ~mono ~limits design
                           e.Entry.iface ~bound) );
                 ])
            @ [
                ( "g-fc",
                  stage (fun ~simplify ~mono ~limits ->
                      Checks.gqed ~simplify ~mono ~limits design e.Entry.iface
                        ~bound) );
              ]
          in
          let reports = Par.run ~jobs (List.map snd stages) in
          List.iter2
            (fun (stage, _) r ->
              Printf.printf "  stage %-13s %s\n" stage
                (match r.Checks.verdict with
                | Checks.Pass _ -> "pass"
                | Checks.Fail _ -> "FAIL"
                | Checks.Unknown _ -> "unknown"))
            stages reports;
          let rec first_fail = function
            | [ r ] -> r
            | r :: rest -> (
                match r.Checks.verdict with
                | Checks.Fail _ | Checks.Unknown _ -> r
                | Checks.Pass _ -> first_fail rest)
            | [] -> assert false
          in
          first_fail reports
      | t -> check t design
    in
    let dt = Unix.gettimeofday () -. t0 in
    report_and_exit ~name ~waveform ~vcd ~dt ~simp_stats report
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run a QED check on a design (or one of its mutants).")
    Term.(
      const run $ design_arg $ technique_arg $ bound_arg $ mutant_arg $ all_mutants_flag
      $ jobs_arg $ waveform_flag $ vcd_arg $ simplify_term $ mono_flag $ simp_stats_flag
      $ timeout_arg $ max_conflicts_arg $ no_escalate_flag $ portfolio_arg
      $ no_share_flag $ deterministic_flag $ checkpoint_arg
      $ resume_flag $ cli_force_flag $ policy_term $ obs_trace_arg $ obs_metrics_arg
      $ obs_format_arg)

(* ---- campaign ---- *)

(* A distributed sharded campaign: every (design, mutant) cell of the
   chosen designs, solved across N worker processes with pull-based
   batching, journaled per worker and merged into one checkpoint (see
   lib/dist/DESIGN.md). Workers are this executable re-exec'd, so the
   solver rebuilds its key -> task table from the [arg] string alone. *)

let campaign_tech_names =
  [ ("gqed", Checks.Gqed); ("flow", Checks.Gqed_flow); ("aqed", Checks.Aqed);
    ("gqed-out", Checks.Gqed_output_only) ]

let campaign_tech_to_string t =
  fst (List.find (fun (_, t') -> t' = t) campaign_tech_names)

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

(* arg = "<tech>|<bound or ->|<comma-separated names or empty for all>" *)
let campaign_arg_encode ~technique ~bound_override names =
  Printf.sprintf "%s|%s|%s"
    (campaign_tech_to_string technique)
    (match bound_override with None -> "-" | Some b -> string_of_int b)
    (String.concat "," names)

let campaign_arg_decode arg =
  match String.split_on_char '|' arg with
  | [ tech; bound; names ] ->
      let technique =
        match List.assoc_opt tech campaign_tech_names with
        | Some t -> t
        | None -> failwith ("bad campaign technique " ^ tech)
      in
      let bound_override = if bound = "-" then None else Some (int_of_string bound) in
      let names = if names = "" then [] else String.split_on_char ',' names in
      (technique, bound_override, names)
  | _ -> failwith ("bad campaign arg " ^ arg)

let campaign_tables : (string, (string, Rtl.design * Qed.Iface.t * int) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 4

let campaign_solver ~arg key =
  let table =
    match Hashtbl.find_opt campaign_tables arg with
    | Some t -> t
    | None ->
        let technique, bound_override, names = campaign_arg_decode arg in
        let t = Hashtbl.create 64 in
        List.iter
          (fun (_label, cell, d, iface, bound) ->
            Hashtbl.replace t cell.Dist.cell_key (d, iface, bound))
          (campaign_tasks ~technique ~bound_override names);
        Hashtbl.add campaign_tables arg t;
        t
  in
  let technique, _, _ = campaign_arg_decode arg in
  match Hashtbl.find_opt table key with
  | None -> failwith ("campaign worker: unknown cell key " ^ key)
  | Some (d, iface, bound) ->
      let r = Checks.run technique d iface ~bound in
      (Checks.report_decided r, Checks.encode_report r)

let () = Dist.register "campaign" campaign_solver

let campaign_cmd =
  let designs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DESIGN"
          ~doc:"Designs to campaign over (default: every registry design).")
  in
  let technique_arg =
    Arg.(
      value
      & opt (enum campaign_tech_names) Checks.Gqed
      & info [ "technique" ] ~docv:"TECH"
          ~doc:
            "One of $(b,gqed) (default), $(b,flow), $(b,aqed), $(b,gqed-out); \
             techniques without a campaign identity (sa, stability) cannot be \
             journaled.")
  in
  let workers_arg =
    Arg.(
      value
      & opt int (Par.default_jobs ())
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
            "Skip the per-record fsync in worker journals (faster; a power loss \
             may drop the last records, a mere SIGKILL cannot).")
  in
  let run names technique bound workers batch no_sync checkpoint resume force
      policy obs_trace obs_metrics obs_format =
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
    let arg = campaign_arg_encode ~technique ~bound_override:bound names in
    match
      Dist.run ~workers ~batch ~policy ~sync:(not no_sync) ~arg ~resume ~force
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
        Printf.printf
          "campaign: %d cell(s), %d from journal, %d dispatched across %d worker(s)\n"
          stats.Dist.d_cells stats.Dist.d_skipped stats.Dist.d_dispatched
          stats.Dist.d_workers;
        if
          stats.Dist.d_restarts + stats.Dist.d_gave_up + stats.Dist.d_degraded
          + stats.Dist.d_stale_unknowns > 0
        then
          Printf.printf
            "supervisor: %d restart(s), %d give-up(s), %d cell(s) solved degraded, \
             %d stale unknown(s) dropped\n"
            stats.Dist.d_restarts stats.Dist.d_gave_up stats.Dist.d_degraded
            stats.Dist.d_stale_unknowns;
        let cs = stats.Dist.d_campaign in
        if cs.Persist.Campaign.c_compactions > 0 then
          Printf.printf "journal: compacted, %d stale record(s) folded away\n"
            cs.Persist.Campaign.c_compacted_away;
        exit (if !undecided > 0 then 3 else if !anomalies > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a distributed verification campaign: every (design, mutant) cell \
          sharded across worker processes, journaled per worker, merged into a \
          resumable checkpoint. Kill it anytime; $(b,--resume) reproduces the \
          uninterrupted verdict matrix bit-for-bit.")
    Term.(
      const run $ designs_arg $ technique_arg $ bound_arg $ workers_arg $ batch_arg
      $ no_sync_arg $ checkpoint_arg $ resume_flag $ cli_force_flag $ policy_term
      $ obs_trace_arg $ obs_metrics_arg $ obs_format_arg)

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

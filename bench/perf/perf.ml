(* The repository benchmark: the G-QED configuration users run
   ([Checks.run Gqed] at each design's recommended bound, with no budget,
   reuse or portfolio, as [gqed campaign] does) on fixed sets of cells
   from the golden verdict matrix, in seeded order. Every verdict is checked against
   test/matrix_golden.txt and every counterexample is replayed on a product
   the benchmark builds itself. Layers are timed from outside, around
   public calls, plus the spans the program already emits when traced.
   README.md in this directory describes the workloads and metrics. *)

open Designs
module Checks = Qed.Checks
module Json = Obs.Json

let now = Unix.gettimeofday
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Host facts, recorded in every output                               *)

(* "key: value" line lookup, as in /proc/self/status and /proc/cpuinfo. *)
let proc_field path key =
  match read_file path with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = key ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)

let vm_hwm_kb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | n :: _ -> Option.value ~default:0 (int_of_string_opt n)
      | [] -> 0)
  | None -> 0

(* CPUs this process may run on (what nproc prints), from the affinity
   list "0-3,6". *)
let nproc () =
  let range r =
    match List.map int_of_string_opt (String.split_on_char '-' r) with
    | [ Some _ ] -> Some 1
    | [ Some a; Some b ] when b >= a -> Some (b - a + 1)
    | _ -> None
  in
  let fallback = Domain.recommended_domain_count () in
  match proc_field "/proc/self/status" "Cpus_allowed_list" with
  | None -> fallback
  | Some l ->
      List.fold_left
        (fun acc r -> match (acc, range r) with Some a, Some n -> Some (a + n) | _ -> None)
        (Some 0) (String.split_on_char ',' l)
      |> Option.value ~default:fallback

(* The commit of the working directory when it is a git checkout. Read
   from .git directly: a git subprocess would walk up into any enclosing
   repository and report its commit instead. *)
let git_rev () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some h -> h
      | None ->
          Option.bind (read ".git/packed-refs") (fun packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ h; name ] when name = r -> Some h
                     | _ -> None))
          |> Option.value ~default:"unknown")
  | Some h when h <> "" -> h
  | _ -> "unknown"

let host_json () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (nproc ())));
      ( "cpu_model",
        Json.Str (Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name")) );
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
    ]

(* ------------------------------------------------------------------ *)
(* Golden verdicts and campaign cells                                 *)

let verdict_string (r : Checks.report) =
  match r.verdict with
  | Checks.Pass n -> Printf.sprintf "proved@%d" n
  | Checks.Fail f ->
      Printf.sprintf "detected@%d:%s" f.witness.Bmc.w_length
        (Checks.failure_kind_to_string f.kind)
  | Checks.Unknown u ->
      Printf.sprintf "unknown@%d:%s" u.u_bound (Sat.Solver.reason_to_string u.u_reason)

let load_golden path =
  let tbl = Hashtbl.create 2048 in
  String.split_on_char '\n' (read_file path)
  |> List.iteri (fun i line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> ()
         | [ design; mutant; verdict ] -> Hashtbl.replace tbl (design, mutant) verdict
         | _ -> failwith (Printf.sprintf "%s:%d: malformed golden line" path (i + 1)));
  tbl

type cell = {
  design : string;
  mutant : string;  (** mutant id, or [correct_id] for the unmutated design *)
  rtl : Rtl.design;
  iface : Qed.Iface.t;
  bound : int;
  expect : string;  (** golden verdict string; correct designs must prove *)
}

let correct_id = "-"

let design_tasks (e : Entry.t) =
  (correct_id, e.design)
  :: List.map (fun ((m : Mutation.t), d) -> (m.id, d)) (Mutation.mutants e.design)

let cells_of golden (e : Entry.t) tasks =
  List.map
    (fun (mutant, rtl) ->
      let expect =
        if mutant = correct_id then Printf.sprintf "proved@%d" e.rec_bound
        else
          match Hashtbl.find_opt golden (e.name, mutant) with
          | Some v -> v
          | None -> failwith (Printf.sprintf "golden file has no verdict for %s %s" e.name mutant)
      in
      { design = e.name; mutant; rtl; iface = e.iface; bound = e.rec_bound; expect })
    tasks

let proves c = String.starts_with ~prefix:"proved@" c.expect

(* The two-copy product exactly as the G-QED check builds it, from public
   functions only: instrumented first when the latency is variable. *)
let product c =
  let d =
    if Qed.Iface.is_variable_latency c.iface then Qed.Instrument.with_monitor c.rtl c.iface
    else c.rtl
  in
  Rtl.product
    (Rtl.rename ~prefix:Checks.copy1_prefix d)
    (Rtl.rename ~prefix:Checks.copy2_prefix d)

(* A counterexample must start from reset and re-simulate to exactly the
   trace the checker reported. *)
let replays prod (w : Bmc.witness) =
  let eq = Rtl.Smap.equal Bitvec.equal in
  match Rtl.simulate_from prod w.w_initial (Array.to_list w.w_inputs) with
  | exception (Invalid_argument _ | Not_found) -> false
  | trace ->
      eq w.w_initial (Rtl.initial_state prod)
      && List.length trace = w.w_length
      && List.length w.w_trace = w.w_length
      && List.for_all2
           (fun (a : Rtl.trace_step) (b : Rtl.trace_step) ->
             eq a.t_inputs b.t_inputs && eq a.t_state b.t_state && eq a.t_outputs b.t_outputs)
           trace w.w_trace

(* ------------------------------------------------------------------ *)
(* Per-cell measurement                                               *)

(* Named sums of one cell's (or one pass's) layer figures. Only
   [rss_kb] is a maximum. *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 32
  let get t k = Option.value ~default:0. (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (get t k +. v)
  let max_ t k v = Hashtbl.replace t k (Float.max (get t k) v)
  let merge ~into t = Hashtbl.iter (fun k v -> if k = "rss_kb" then max_ into k v else add into k v) t
  let to_json t = Json.Obj (Hashtbl.fold (fun k v l -> (k, Json.Num v) :: l) t [])

  let of_json = function
    | Json.Obj kvs ->
        let t = create () in
        List.iter (function k, Json.Num v -> Hashtbl.replace t k v | _ -> ()) kvs;
        Some t
    | _ -> None
end

(* Inclusive seconds per span name (keyed "span.<name>") and the event
   count of one traced cell. *)
let add_spans acc events =
  let open_spans = Hashtbl.create 2 in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans ev.ev_domain) in
      match (ev.ev_kind, stack) with
      | Obs.Trace.Begin, _ -> Hashtbl.replace open_spans ev.ev_domain (ev.ev_ts :: stack)
      | Obs.Trace.End, t0 :: rest ->
          Hashtbl.replace open_spans ev.ev_domain rest;
          Acc.add acc ("span." ^ ev.ev_name) (ev.ev_ts -. t0)
      | _ -> ())
    events;
  Acc.add acc "obs.events" (float_of_int (List.length events))

let histogram_sum name snapshot =
  match List.assoc_opt name snapshot with
  | Some (Obs.Metrics.Histogram h) -> h.h_sum
  | _ -> 0.

let cpu_self () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Solve one cell the way users do and record what each layer did. The
   timer and GC counters bracket [Checks.run] alone; the
   product timing and span sums exist only when traced. *)
let run_cell ~traced c =
  let acc = Acc.create () in
  if traced then begin
    let t0 = now () in
    ignore (Sys.opaque_identity (product c));
    Acc.add acc "qed.product_s" (now () -. t0);
    Obs.Trace.reset ()
  end;
  let snap0 = if traced then Obs.Metrics.snapshot () else [] in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let r = Checks.run Checks.Gqed c.rtl c.iface ~bound:c.bound in
  let seconds = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  Acc.add acc "cell.seconds" seconds;
  Acc.add acc "gc.minor_words" (gc1.minor_words -. gc0.minor_words);
  Acc.add acc "gc.promoted_words" (gc1.promoted_words -. gc0.promoted_words);
  Acc.add acc "gc.major_collections" (float_of_int (gc1.major_collections - gc0.major_collections));
  let st = r.sat_stats in
  Acc.add acc "sat.propagations" (float_of_int st.propagations);
  Acc.add acc "sat.conflicts" (float_of_int st.conflicts);
  Acc.add acc "sat.decisions" (float_of_int st.decisions);
  Acc.add acc "bmc.queries" (float_of_int r.simp.ss_queries);
  Acc.add acc "bmc.cnf_vars" (float_of_int r.cnf_vars);
  Acc.add acc "bmc.clauses_emitted" (float_of_int r.simp.ss_clauses_emitted);
  Acc.add acc "bmc.bounds"
    (float_of_int
       (match r.verdict with
       | Checks.Pass n -> n
       | Checks.Fail f -> f.witness.Bmc.w_length
       | Checks.Unknown u -> u.u_bound));
  if traced then begin
    add_spans acc (Obs.Trace.events ());
    Obs.Trace.reset ();
    let snap = Obs.Metrics.diff ~before:snap0 ~after:(Obs.Metrics.snapshot ()) in
    Acc.add acc "sat.solve" (histogram_sum "sat.solve.seconds" snap)
  end;
  (r, acc)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)

type spec = {
  name : string;
  designs : string list;  (** registry designs the workload takes cells from *)
  keep : cell -> bool;  (** which of their cells make up one pass *)
  tail : float;  (** quantile reported as [cell_tail_s] *)
  campaigns : int;
      (** 0: solved in-process; k: each pass splits the designs into k
          campaigns, each run through [Dist.run] *)
}

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Every pass solves the same cells; the seed only orders them (and, for
   campaigns, groups the designs). A seeded subset would not do: drawing
   even two thirds of the campaign cells moves cells_per_s by about 3.5%
   (interquartile range over seeds) from the mix alone. *)
let specs =
  [
    {
      (* The correct designs: all-UNSAT deepening ladders, so CDCL search
         in lib/sat does nearly all the work. *)
      name = "prove";
      designs = Registry.names;
      keep = (fun c -> c.mutant = correct_id);
      tail = 0.6;
      campaigns = 0;
    };
    {
      (* Every golden cell with a counterexample: short SAT queries, so
         product build, unrolling, Tseitin, preprocessing and witness
         extraction take about a fifth of the time, against 2.5% on prove. *)
      name = "detect";
      designs = Registry.names;
      keep = (fun c -> not (proves c));
      tail = 0.98;
      campaigns = 0;
    };
    {
      (* Every cell of nine designs whose cells cost 0.002-0.7 s, so process
         spawn, the pipe protocol, journal fsyncs and shard merge show. *)
      name = "campaign";
      designs =
        [ "fir4"; "graycodec"; "hamming74"; "lfsr8"; "maxtrack"; "popcount"; "rle"; "satcnt"; "seqdet" ];
      keep = (fun _ -> true);
      tail = 0.97;
      campaigns = 3;
    };
  ]

(* A handful of millisecond cells per workload, for the smoke run. *)
let smoke_specs =
  List.map
    (fun s ->
      let s = { s with designs = [ "graycodec"; "hamming74" ] } in
      if s.campaigns > 0 then { s with keep = (fun c -> c.mutant = correct_id || not (proves c)); campaigns = 2 }
      else s)
    specs

let cell_key c = Checks.campaign_key Checks.Gqed c.rtl c.iface ~bound:c.bound

type setup = {
  pool : cell list;  (** one pass's cells, grouped by design in registry order *)
  keyed : (string * Dist.cell) list;  (** campaigns only: (design, cell) per pool cell *)
  by_key : (string, cell) Hashtbl.t;  (** campaigns only; structurally equal mutants share a key *)
  enumerate_s : float;
  mutants : int;
}

(* Everything before the first cell: golden load, mutant enumeration and
   the cell table. (Registry designs are built at module init, earlier.) *)
let setup spec ~golden_path =
  let golden = load_golden golden_path in
  let entries = List.map Registry.find spec.designs in
  let t0 = now () in
  let tasks = List.map design_tasks entries in
  let enumerate_s = now () -. t0 in
  let pool = List.concat (List.map2 (cells_of golden) entries tasks) |> List.filter spec.keep in
  let by_key = Hashtbl.create 512 in
  let keyed =
    if spec.campaigns = 0 then []
    else
      List.map
        (fun c ->
          let k = cell_key c in
          Hashtbl.add by_key k c;
          (c.design, { Dist.cell_key = k; cell_hint = Checks.campaign_hint c.rtl ~bound:c.bound }))
        pool
  in
  { pool; keyed; by_key; enumerate_s; mutants = List.fold_left (fun n t -> n + List.length t - 1) 0 tasks }

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)

(* Passes of one kind (untraced or traced) and what they measured. *)
type lane = {
  acc : Acc.t;
  mutable passes : int;
  mutable cells : int;
  mutable cell_seconds : float list;
  mutable wall : float;  (** seconds the cells took: Σ cell time, or Σ [Dist.run] *)
}

let new_lane () = { acc = Acc.create (); passes = 0; cells = 0; cell_seconds = []; wall = 0. }

type run = {
  lanes : lane array;  (** 0: untraced, 1: traced *)
  mutable attempted : int;
  mutable failures : string list;
}

let fail run msg = run.failures <- msg :: run.failures

(* Peak RSS is sampled after a lane's first pass, so it does not depend on
   how many passes fit in the run. *)
let end_pass lane =
  if lane.passes = 0 then Acc.max_ lane.acc "rss_kb" (float_of_int (vm_hwm_kb ()));
  lane.passes <- lane.passes + 1

(* Check a verdict against golden, and replay a counterexample. *)
let check_cell run lane c (r : Checks.report) =
  let got = verdict_string r in
  if got <> c.expect then
    fail run (Printf.sprintf "%s %s: verdict %s, golden %s" c.design c.mutant got c.expect)
  else
    match r.verdict with
    | Checks.Fail f ->
        let prod = product c in
        let t0 = now () in
        let ok = replays prod f.witness in
        Acc.add lane.acc "rtl.replay_s" (now () -. t0);
        Acc.add lane.acc "rtl.replayed_witnesses" 1.;
        if not ok then fail run (Printf.sprintf "%s %s: witness does not replay" c.design c.mutant)
    | Checks.Pass _ | Checks.Unknown _ -> ()

(* Whole passes until [seconds] have been spent: every pass solves the
   same cells, so rates do not depend on where the clock ran out. Traced
   runs alternate untraced and traced passes and end on a traced one. *)
let passes ~seconds ~trace f =
  let elapsed = ref 0. and n = ref 0 in
  while !n = 0 || !elapsed < seconds || (trace && !n mod 2 = 1) do
    let traced = trace && !n mod 2 = 1 in
    if traced then Obs.enable ();
    let t0 = now () in
    Fun.protect ~finally:Obs.disable (fun () -> f ~pass:!n ~traced);
    elapsed := !elapsed +. (now () -. t0);
    incr n
  done

let run_in_process run st ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 1 |] in
  passes ~seconds ~trace (fun ~pass:_ ~traced ->
      let lane = run.lanes.(if traced then 1 else 0) in
      List.iter
        (fun c ->
          run.attempted <- run.attempted + 1;
          let cpu0 = cpu_self () in
          match run_cell ~traced c with
          | exception e ->
              fail run (Printf.sprintf "%s %s: %s" c.design c.mutant (Printexc.to_string e))
          | r, acc ->
              Acc.add lane.acc "cpu" (cpu_self () -. cpu0);
              Acc.merge ~into:lane.acc acc;
              lane.cells <- lane.cells + 1;
              lane.wall <- lane.wall +. Acc.get acc "cell.seconds";
              lane.cell_seconds <- Acc.get acc "cell.seconds" :: lane.cell_seconds;
              check_cell run lane c r)
        (shuffle rng st.pool);
      end_pass lane)

(* --- campaign: the same cells through Dist, solved in worker processes --- *)

let campaign_solver = "perf-campaign"
let workers = 2

(* Worker payload: the cell's layer figures as one JSON line, then the
   report exactly as [gqed campaign] journals it. *)
let encode_payload acc r = Json.to_string (Acc.to_json acc) ^ "\n" ^ Checks.encode_report r

let decode_payload s =
  match String.index_opt s '\n' with
  | None -> None
  | Some i -> (
      match
        ( Result.to_option (Json.parse (String.sub s 0 i)),
          Checks.decode_report (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some j, Some r -> Option.map (fun acc -> (acc, r)) (Acc.of_json j)
      | _ -> None)

(* arg = "<0|1>:<comma-separated designs>"; workers rebuild the key table
   from the registry alone. *)
let campaign_arg ~traced designs = (if traced then "1:" else "0:") ^ String.concat "," designs

let worker_tables : (string, (string, cell) Hashtbl.t) Hashtbl.t = Hashtbl.create 2

let worker_solve ~arg key =
  let traced = String.starts_with ~prefix:"1:" arg in
  let table =
    match Hashtbl.find_opt worker_tables arg with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 1024 in
        String.split_on_char ',' (String.sub arg 2 (String.length arg - 2))
        |> List.iter (fun name ->
               let e = Registry.find name in
               List.iter
                 (fun (mutant, rtl) ->
                   let c =
                     { design = name; mutant; rtl; iface = e.iface; bound = e.rec_bound; expect = "" }
                   in
                   Hashtbl.replace t (cell_key c) c)
                 (design_tasks e));
        Hashtbl.add worker_tables arg t;
        t
  in
  match Hashtbl.find_opt table key with
  | None -> failwith ("perf campaign worker: unknown cell key " ^ key)
  | Some c ->
      if traced then Obs.enable ();
      let r, acc = run_cell ~traced c in
      Acc.max_ acc "rss_kb" (float_of_int (vm_hwm_kb ()));
      (Checks.report_decided r, encode_payload acc r)

let workdir = "_bench_perf"

let remove_journal journal =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (journal :: List.init workers (Dist.worker_journal journal))

(* One cold campaign over [cells] into a fresh journal, then a warm
   resume that the journal must answer in full. *)
let run_one_campaign run lane ~traced ~journal ~arg ~by_key cells =
  let dist ~resume =
    match
      Dist.run ~workers ~batch:2 ~arg ~resume ~force:(not resume) ~journal ~solver:campaign_solver cells
    with
    | Ok x -> x
    | Error msg -> failwith ("campaign: " ^ msg)
  in
  remove_journal journal;
  Fun.protect ~finally:(fun () -> remove_journal journal) @@ fun () ->
  let a = lane.acc in
  let tm0 = Unix.times () and t0 = now () in
  let rows, stats = dist ~resume:false in
  let wall = now () -. t0 and tm1 = Unix.times () in
  Acc.add a "cpu"
    (tm1.tms_utime +. tm1.tms_stime +. tm1.tms_cutime +. tm1.tms_cstime
    -. (tm0.tms_utime +. tm0.tms_stime +. tm0.tms_cutime +. tm0.tms_cstime));
  if traced then begin
    Acc.add a "obs.events" (float_of_int (List.length (Obs.Trace.events ())));
    Obs.Trace.reset ()
  end;
  Acc.add a "dist.run_s" wall;
  Acc.add a "dist.dispatched" (float_of_int stats.d_dispatched);
  Acc.add a "dist.merged" (float_of_int stats.d_merged);
  Acc.add a "dist.restarts" (float_of_int stats.d_restarts);
  lane.wall <- lane.wall +. wall;
  List.iter
    (fun (row : Dist.row) ->
      run.attempted <- run.attempted + 1;
      let same = Hashtbl.find_all by_key row.r_key in
      let c = List.hd same in
      match decode_payload row.r_payload with
      | None ->
          fail run
            (Printf.sprintf "%s %s: %s" c.design c.mutant
               (if row.r_decided then "undecodable payload" else "undecided or crashed"))
      | Some (cell_acc, r) ->
          Acc.merge ~into:a cell_acc;
          Acc.add a "dist.solve_sum_s" row.r_seconds;
          lane.cells <- lane.cells + 1;
          lane.cell_seconds <- row.r_seconds :: lane.cell_seconds;
          List.iter (fun c -> check_cell run lane c r) same)
    rows;
  let t0 = now () in
  let warm, wstats = dist ~resume:true in
  Acc.add a "persist.resume_s" (now () -. t0);
  if wstats.d_dispatched <> 0
     || not
          (List.for_all2
             (fun (c : Dist.row) (w : Dist.row) -> w.r_warm && w.r_payload = c.r_payload)
             rows warm)
  then fail run "campaign: the warm resume re-solved or changed a cell";
  let t0 = now () in
  (match Persist.Journal.load journal with
  | Ok (entries, _) -> Acc.add a "persist.records" (float_of_int (List.length entries))
  | Error msg -> fail run ("campaign journal: " ^ msg));
  Acc.add a "persist.load_s" (now () -. t0);
  Acc.add a "persist.journal_bytes" (float_of_int (Unix.stat journal).st_size)

(* Each pass deals the designs, in seeded order, into [spec.campaigns]
   campaigns and runs them one after another, as a user campaigning over
   a few designs at a time would. *)
let run_campaigns run spec st ~seed ~seconds ~trace =
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rng = Random.State.make [| seed; 2 |] in
  passes ~seconds ~trace (fun ~pass ~traced ->
      let lane = run.lanes.(if traced then 1 else 0) in
      let dealt = List.mapi (fun i d -> (i mod spec.campaigns, d)) (shuffle rng spec.designs) in
      for g = 0 to spec.campaigns - 1 do
        let designs = List.filter_map (fun (i, d) -> if i = g then Some d else None) dealt in
        let cells =
          shuffle rng (List.filter_map (fun (d, k) -> if List.mem d designs then Some k else None) st.keyed)
        in
        let journal =
          Filename.concat workdir (Printf.sprintf "campaign-%d-%d-%d.jrnl" (Unix.getpid ()) pass g)
        in
        run_one_campaign run lane ~traced ~journal ~arg:(campaign_arg ~traced designs) ~by_key:st.by_key
          cells
      done;
      end_pass lane);
  try Unix.rmdir workdir with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

(* Interpolated at the 1-based position q(n+1), clamped to the sample:
   Python's statistics.quantiles (method "exclusive") gives the same. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let pos = q *. float_of_int (n + 1) in
  if n = 0 then 0.
  else if pos <= 1. then a.(0)
  else if pos >= float_of_int n then a.(n - 1)
  else
    let lo = int_of_float pos in
    a.(lo - 1) +. ((pos -. float_of_int lo) *. (a.(lo) -. a.(lo - 1)))

(* Harrell-Davis estimate of the q-quantile: the mean of all order
   statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density, integrated
   here by the midpoint rule. A single order statistic jumps when host
   noise swaps two cells of different cost near the quantile; with the 25
   cells of a prove pass that moved the plain median by 30% between runs. *)
let hd_quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then if n = 0 then 0. else a.(0)
  else
    let nf = float_of_int n and k = 8 in
    let alpha = q *. (nf +. 1.) and beta = (1. -. q) *. (nf +. 1.) in
    let log_density =
      Array.init (n * k) (fun j ->
          let t = (float_of_int j +. 0.5) /. (nf *. float_of_int k) in
          ((alpha -. 1.) *. log t) +. ((beta -. 1.) *. Float.log1p (-.t)))
    in
    let top = Array.fold_left Float.max neg_infinity log_density in
    let w = Array.make n 0. in
    Array.iteri (fun j l -> w.(j / k) <- w.(j / k) +. exp (l -. top)) log_density;
    let weighted = ref 0. in
    Array.iteri (fun i wi -> weighted := !weighted +. (wi *. a.(i))) w;
    !weighted /. Array.fold_left ( +. ) 0. w

let ratio a b = if b > 0. then a /. b else 0.

let end_to_end spec lane ~setup_s =
  let per_pass k = ratio (Acc.get lane.acc k) (float_of_int lane.passes) in
  [
    ("cells_per_s", "cells/s", ratio (float_of_int lane.cells) lane.wall);
    ("cell_p50_s", "s", hd_quantile 0.5 lane.cell_seconds);
    ("cell_tail_s", "s", hd_quantile spec.tail lane.cell_seconds);
    ("cpu_s", "s", per_pass "cpu");
    ("peak_rss_mb", "MiB", Acc.get lane.acc "rss_kb" /. 1024.);
    ("setup_s", "s", setup_s);
  ]

let per_layer ~untraced lane st =
  let a = lane.acc in
  let s k = ratio (Acc.get a k) (float_of_int lane.passes) in
  let search = s "sat.solve" in
  [
    ("mutation.enumerate_s", "s", st.enumerate_s);
    ("mutation.mutants", "count", float_of_int st.mutants);
    ("qed.product_s", "s", s "qed.product_s");
    ("qed.build_s", "s", s "span.qed.check" -. s "span.bmc.query");
    ("bmc.bounds", "count", s "bmc.bounds");
    ("bmc.queries", "count", s "bmc.queries");
    ("bmc.cnf_vars", "count", s "bmc.cnf_vars");
    ("bmc.clauses_emitted", "count", s "bmc.clauses_emitted");
    ("bmc.emit_extract_s", "s", s "span.bmc.query" -. s "span.sat.preprocess" -. search);
    ("sat.search_s", "s", search);
    ("sat.preprocess_s", "s", s "span.sat.preprocess");
    ("sat.reduce_s", "s", s "span.sat.reduce");
    ("sat.propagations", "count", s "sat.propagations");
    ("sat.conflicts", "count", s "sat.conflicts");
    ("sat.decisions", "count", s "sat.decisions");
    ("sat.props_per_s", "1/s", ratio (s "sat.propagations") search);
    ("sat.conflicts_per_s", "1/s", ratio (s "sat.conflicts") search);
    ("gc.minor_words", "words", s "gc.minor_words");
    ("gc.promoted_words", "words", s "gc.promoted_words");
    ("gc.major_collections", "count", s "gc.major_collections");
    ("gc.minor_words_per_prop", "words", ratio (s "gc.minor_words") (s "sat.propagations"));
    ("rtl.replay_s", "s", s "rtl.replay_s");
    ("rtl.replayed_witnesses", "count", s "rtl.replayed_witnesses");
    ("dist.run_s", "s", s "dist.run_s");
    ("dist.solve_sum_s", "s", s "dist.solve_sum_s");
    ( "dist.idle_frac",
      "share",
      if s "dist.run_s" > 0. then
        1. -. ratio (s "dist.solve_sum_s") (float_of_int workers *. s "dist.run_s")
      else 0. );
    ("dist.dispatched", "count", s "dist.dispatched");
    ("dist.merged", "count", s "dist.merged");
    ("dist.restarts", "count", s "dist.restarts");
    ("persist.resume_s", "s", s "persist.resume_s");
    ("persist.load_s", "s", s "persist.load_s");
    ("persist.records", "count", s "persist.records");
    ("persist.journal_bytes", "bytes", s "persist.journal_bytes");
    ( "obs.overhead_frac",
      "share",
      1. -. ratio (ratio (float_of_int lane.cells) lane.wall)
              (ratio (float_of_int untraced.cells) untraced.wall) );
    ("obs.events", "count", s "obs.events");
  ]

let metrics_json ms =
  Json.Obj
    (List.map (fun (name, unit, v) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])) ms)

let setup_reps = 15

(* One measured run of one workload. Returns the result object and
   whether every cell was correct. *)
let run_workload spec ~golden_path ~seed ~seconds ~trace =
  let timed_setup () =
    let t0 = now () in
    let st = setup spec ~golden_path in
    (st, now () -. t0)
  in
  (* Untimed set-ups first: the CPU of an idle host takes tens of
     milliseconds to reach full speed, which otherwise moved setup_s by up
     to 60% between runs. *)
  let warm_until = now () +. 0.3 in
  while now () < warm_until do
    ignore (Sys.opaque_identity (timed_setup ()))
  done;
  let extra = List.init (setup_reps - 1) (fun _ -> snd (timed_setup ())) in
  let st, last = timed_setup () in
  let setup_s = quantile 0.5 (last :: extra) in
  let run = { lanes = [| new_lane (); new_lane () |]; attempted = 0; failures = [] } in
  if spec.campaigns > 0 then run_campaigns run spec st ~seed ~seconds ~trace
  else run_in_process run st ~seed ~seconds ~trace;
  let untraced = run.lanes.(0) in
  let ms =
    if trace then per_layer ~untraced run.lanes.(1) st else end_to_end spec untraced ~setup_s
  in
  let failed = List.length run.failures in
  List.iter (fun m -> prerr_endline ("perf: FAIL " ^ m)) (List.rev run.failures);
  Printf.printf "# %s: seed %d, %d+%d passes, %d cells; cell_tail_s is p%.0f of %d samples\n"
    spec.name seed untraced.passes run.lanes.(1).passes run.attempted (spec.tail *. 100.)
    (List.length untraced.cell_seconds);
  ( Json.Obj
      [
        ("correct", Json.Bool (failed = 0 && run.attempted > 0));
        ("attempted", Json.Num (float_of_int run.attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", metrics_json ms);
      ],
    failed = 0 && run.attempted > 0 )

(* ------------------------------------------------------------------ *)
(* --repeat: fresh processes, alternating workload order              *)

let last_line s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") |> List.rev
  |> function
  | l :: _ -> l
  | [] -> ""

(* Run one measurement in a child process, as the benchmark is run from
   outside: peak RSS and the heap start fresh. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, Json.parse (last_line out)) with
  | Unix.WEXITED 0, Ok j -> Ok j
  | Unix.WEXITED n, _ -> Error (Printf.sprintf "exit %d" n)
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ -> Error (Printf.sprintf "signal %d" n)

let metric_values j =
  match Json.member "metrics" j with
  | Some (Json.Obj ms) ->
      List.filter_map
        (fun (name, m) ->
          match Json.member "value" m with Some (Json.Num v) -> Some (name, v) | _ -> None)
        ms
  | _ -> []

let repeat names ~n ~seed ~seconds ~trace ~golden_path =
  let runs = ref [] and errors = ref 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun w ->
        let s = seed + i in
        let args =
          [ "--workload"; w; "--seed"; string_of_int s; "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; (if trace then "1" else "0"); "--golden"; golden_path ]
        in
        match child args with
        | Ok j -> runs := (w, s, j) :: !runs
        | Error e ->
            incr errors;
            Printf.eprintf "perf: %s seed %d: %s\n%!" w s e)
      (if i mod 2 = 0 then names else List.rev names)
  done;
  let runs = List.rev !runs in
  let summary =
    List.map
      (fun w ->
        let results = List.filter_map (fun (w', _, j) -> if w' = w then Some j else None) runs in
        let metric_names = match results with j :: _ -> List.map fst (metric_values j) | [] -> [] in
        ( w,
          Json.Obj
            (List.map
               (fun m ->
                 let vs = List.filter_map (fun j -> List.assoc_opt m (metric_values j)) results in
                 let q1 = quantile 0.25 vs and med = quantile 0.5 vs and q3 = quantile 0.75 vs in
                 Printf.printf "# %-9s %-24s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (n=%d)\n" w m
                   med q1 q3 (ratio (q3 -. q1) med) (List.length vs);
                 ( m,
                   Json.Obj
                     [ ("median", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3);
                       ("spread", Json.Num (ratio (q3 -. q1) med)); ("n", Json.Num (float_of_int (List.length vs))) ] ))
               metric_names) ))
      names
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("host", host_json ());
            ("seconds", Json.Num seconds);
            ("trace", Json.Num (if trace then 1. else 0.));
            ( "runs",
              Json.Arr
                (List.map
                   (fun (w, s, j) ->
                     Json.Obj [ ("workload", Json.Str w); ("seed", Json.Num (float_of_int s)); ("result", j) ])
                   runs) );
            ("summary", Json.Obj summary);
          ]));
  if !errors = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* --smoke: every workload at toy size, checked against BENCHMARK.json *)

let valid_name s =
  let ok c = match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let first = match s with "" -> false | _ -> ( match s.[0] with '_' | '.' | '-' -> false | c -> ok c) in
  first && String.length s <= 64 && String.for_all ok s

let smoke ~golden_path ~benchmark =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let decl =
    match Json.parse (read_file benchmark) with Ok j -> j | Error e -> failwith (benchmark ^ ": " ^ e)
  in
  let declared key =
    match Json.member key decl with
    | Some (Json.Arr items) ->
        List.filter_map
          (fun item ->
            match (Json.member "name" item, Json.member "unit" item) with
            | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
            | Some (Json.Str n), None -> Some (n, "")
            | _ -> None)
          items
    | _ -> []
  in
  let workloads = declared "workloads" and e2e = declared "end_to_end" and layers = declared "per_layer" in
  let count what l lo hi =
    if List.length l < lo || List.length l > hi then
      problem "%d %s declared, want %d..%d" (List.length l) what lo hi
  in
  count "workloads" workloads 2 8;
  count "end_to_end metrics" e2e 1 16;
  count "per_layer metrics" layers 1 128;
  let all_names = List.map fst (workloads @ e2e @ layers) in
  List.iter (fun n -> if not (valid_name n) then problem "bad name %S" n) all_names;
  List.iteri
    (fun i n -> if List.mem n (List.filteri (fun j _ -> j < i) all_names) then problem "name %S used twice" n)
    all_names;
  List.iter
    (fun (w, _) -> if not (List.exists (fun s -> s.name = w) specs) then problem "unknown workload %S" w)
    workloads;
  List.iter
    (fun spec ->
      if not (List.mem_assoc spec.name workloads) then problem "workload %S not declared" spec.name;
      List.iter
        (fun (trace, wanted) ->
          let result, _ = run_workload spec ~golden_path ~seed:1 ~seconds:0. ~trace in
          let line = Json.to_string result in
          print_endline line;
          match Json.parse line with
          | Error e -> problem "%s: unparsable result: %s" spec.name e
          | Ok j ->
              if Json.member "correct" j <> Some (Json.Bool true) || Json.member "failed" j <> Some (Json.Num 0.)
              then problem "%s (trace %b): cells failed" spec.name trace;
              let ms = match Json.member "metrics" j with Some m -> m | None -> Json.Null in
              List.iter
                (fun (name, unit) ->
                  match Option.map (fun m -> (Json.member "value" m, Json.member "unit" m)) (Json.member name ms) with
                  | Some (Some (Json.Num v), Some (Json.Str u)) ->
                      if u <> unit then problem "%s %s: unit %s, declared %s" spec.name name u unit;
                      if not (Float.is_finite v) then
                        problem "%s %s: not a finite number" spec.name name;
                      if (not trace) && v <= 0. then problem "%s %s: end-to-end value %g" spec.name name v
                  | _ -> problem "%s: metric %s missing" spec.name name)
                wanted)
        [ (false, e2e); (true, layers) ])
    smoke_specs;
  List.iter (fun m -> prerr_endline ("perf smoke: " ^ m)) (List.rev !problems);
  if !problems = [] then begin
    print_endline "perf smoke: ok";
    0
  end
  else 1

(* ------------------------------------------------------------------ *)

let usage =
  "perf.exe --workload prove|detect|campaign --seed N --seconds S --trace 0|1\n\
  \       perf.exe --workload all|NAME,NAME --repeat N [--seed N --seconds S --trace 0|1]\n\
  \       perf.exe --smoke [--golden FILE --benchmark FILE]"

let () =
  Dist.register campaign_solver worker_solve;
  Dist.worker_entry ();
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let repeat_n = ref 0 and smoke_run = ref false in
  let golden_path = ref "test/matrix_golden.txt" and benchmark = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  prove, detect or campaign (with --repeat: a list or all)");
      ("--seed", Arg.Set_int seed, "N  workload seed (--repeat uses N, N+1, ...)");
      ("--seconds", Arg.Set_float seconds, "S  measure whole passes until S seconds are spent");
      ("--trace", Arg.Set_int trace, "0|1  1: report per-layer metrics from traced passes");
      ("--repeat", Arg.Set_int repeat_n, "N  run each workload N times in fresh processes; print quartiles");
      ("--smoke", Arg.Set smoke_run, " run every workload at toy size and check BENCHMARK.json's names");
      ("--golden", Arg.Set_string golden_path, "FILE  golden verdict matrix (default test/matrix_golden.txt)");
      ("--benchmark", Arg.Set_string benchmark, "FILE  metric declarations for --smoke (default BENCHMARK.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let usage_error msg =
    prerr_endline ("perf: " ^ msg);
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  let guarded f =
    match f () with
    | code -> exit code
    | exception (Failure msg | Sys_error msg) -> usage_error msg
  in
  if !smoke_run then guarded (fun () -> smoke ~golden_path:!golden_path ~benchmark:!benchmark);
  let names = if !workload = "all" then List.map (fun s -> s.name) specs else String.split_on_char ',' !workload in
  let chosen =
    List.map
      (fun n ->
        match List.find_opt (fun s -> s.name = n) specs with
        | Some s -> s
        | None -> usage_error (Printf.sprintf "unknown workload %S" n))
      names
  in
  if List.exists (fun s -> s.campaigns > 0) chosen && nproc () < workers then
    usage_error
      (Printf.sprintf "campaign needs %d CPUs for its %d worker processes; this host has %d" workers
         workers (nproc ()));
  print_endline ("# host " ^ Json.to_string (host_json ()));
  let trace = !trace = 1 in
  if !repeat_n > 0 then
    guarded (fun () ->
        repeat names ~n:!repeat_n ~seed:!seed ~seconds:!seconds ~trace ~golden_path:!golden_path)
  else
    match chosen with
    | [ spec ] ->
        guarded (fun () ->
            let result, ok = run_workload spec ~golden_path:!golden_path ~seed:!seed ~seconds:!seconds ~trace in
            print_endline (Json.to_string result);
            if ok then 0 else 1)
    | _ -> usage_error "give one --workload (several only with --repeat)"

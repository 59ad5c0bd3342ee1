(* Clause-sharing portfolio: N diversified CDCL workers racing on the same
   CNF across OCaml domains.

   Each worker is a fresh [Solver.t] loaded from the master's [export_cnf]
   snapshot and diversified with verdict-preserving knobs (restart base,
   VSIDS decay, phase inversion, phase-perturbation seed). Workers export
   their low-LBD/short learnt clauses into bounded single-producer
   single-consumer ring buffers (one per ordered worker pair) and import
   peers' clauses at restart boundaries. The first decisive worker wins and
   the siblings are cancelled through their [Par.Cancel] tokens.

   Certification: every worker logs a DRAT stream stamped by one shared
   atomic proof clock. The merged certificate is the master's own stream
   followed by every worker's [Add] events in stamp order (worker [Input]
   and [Delete] events dropped) — see PORTFOLIO.md for why each event is
   RUP at its merged position. *)

(* ------------------------------------------------------------------ *)
(* SPSC ring buffer.

   One producer domain, one consumer domain, drop-on-full. [slots] is a
   plain array published through the [tail] atomic: the producer's slot
   write happens-before its [Atomic.set tail], which happens-before the
   consumer's [Atomic.get tail] that licenses the slot read. Symmetrically
   the consumer's [Atomic.set head] licenses slot reuse by the producer, so
   no plain-field access ever races. Neither side blocks or retries: a full
   ring drops the clause (sharing is a heuristic, not a protocol). *)
module Ring = struct
  type t = {
    slots : Lit.t array array;
    head : int Atomic.t; (* next slot the consumer will read *)
    tail : int Atomic.t; (* next slot the producer will write *)
    mutable dropped : int; (* producer-side only *)
    cap : int;
  }

  let create cap =
    if cap < 1 then invalid_arg "Portfolio.Ring.create: capacity must be >= 1";
    {
      slots = Array.make cap [||];
      head = Atomic.make 0;
      tail = Atomic.make 0;
      dropped = 0;
      cap;
    }

  let push r c =
    let t = Atomic.get r.tail in
    let h = Atomic.get r.head in
    if t - h >= r.cap then begin
      r.dropped <- r.dropped + 1;
      false
    end
    else begin
      r.slots.(t mod r.cap) <- c;
      Atomic.set r.tail (t + 1);
      true
    end

  let pop r =
    let h = Atomic.get r.head in
    let t = Atomic.get r.tail in
    if h >= t then None
    else begin
      let c = r.slots.(h mod r.cap) in
      Atomic.set r.head (h + 1);
      Some c
    end

  let dropped r = r.dropped
  let capacity r = r.cap
end

(* ------------------------------------------------------------------ *)

type config = {
  p_workers : int;
  p_share : bool;
  p_max_lbd : int;
  p_max_len : int;
  p_ring_capacity : int;
  p_deterministic : bool;
}

let config ?(workers = 2) ?(share = true) ?(max_lbd = 4) ?(max_len = 8)
    ?(ring_capacity = 1024) ?(deterministic = false) () =
  if workers < 1 then invalid_arg "Portfolio.config: workers must be >= 1";
  {
    p_workers = workers;
    p_share = share && not deterministic;
    p_max_lbd = max_lbd;
    p_max_len = max_len;
    p_ring_capacity = ring_capacity;
    p_deterministic = deterministic;
  }

type outcome = {
  o_result : Solver.result;
  o_winner : int;
  o_model : bool array option;
  o_derived : Drat.proof;
  o_stats : Solver.stats;
  o_reports : (int * Solver.result * Solver.stats) list;
  o_exported : int;
  o_imported : int;
  o_dropped : int;
}

type wreport = {
  w_index : int;
  w_result : Solver.result;
  w_stats : Solver.stats;
  w_model : bool array option;
  w_adds : (int * Drat.event) list; (* stamped Add events only *)
  w_dropped : int;
}

(* Verdict-preserving diversity tables, indexed by worker. Worker 0 keeps
   the solver defaults (and the caller's seed untouched), so the portfolio
   always contains the reference single-solver trajectory. *)
let restart_bases = [| 100; 64; 150; 90; 200; 75; 130; 110 |]
let var_decays = [| 0.95; 0.92; 0.97; 0.90; 0.96; 0.93; 0.99; 0.91 |]

let decided = function Solver.Sat | Solver.Unsat -> true | Solver.Unknown _ -> false

let solve ?(assumptions = []) ?(budget = Solver.no_budget) ?cancel ?seed ~config
    master =
  let n = config.p_workers in
  if n = 1 || not (Solver.ok master) then begin
    (* Degenerate portfolio: solve on the master itself, so [--portfolio 1]
       is observably the plain single-solver lane. *)
    let r = Solver.solve ~assumptions ~budget ?cancel ?seed master in
    let st = Solver.stats master in
    {
      o_result = r;
      o_winner = 0;
      o_model = (match r with Solver.Sat -> Some (Solver.model master) | _ -> None);
      o_derived = [];
      o_stats = st;
      o_reports = [ (0, r, st) ];
      o_exported = st.Solver.clauses_exported;
      o_imported = st.Solver.clauses_imported;
      o_dropped = 0;
    }
  end
  else begin
    let nvars, snapshot = Solver.export_cnf master in
    let certify = Solver.proof_logging master in
    let clock = if certify then Some (Atomic.make 1) else None in
    (* rings.(p).(c): clauses flowing from producer [p] to consumer [c]. *)
    let rings =
      Array.init n (fun _ -> Array.init n (fun _ -> Ring.create config.p_ring_capacity))
    in
    let run_worker token i =
      if Obs.on () then
        Obs.Trace.span_begin "portfolio.worker" ~args:[ ("worker", string_of_int i) ];
      let s = Solver.create () in
      if certify then Solver.start_proof s;
      Solver.set_proof_clock s clock;
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (fun c -> Solver.add_clause s (Array.to_list c)) snapshot;
      Solver.configure s
        ~restart_base:restart_bases.(i mod Array.length restart_bases)
        ~var_decay:(1. /. var_decays.(i mod Array.length var_decays))
        ~invert_phase:(i land 1 = 1);
      let wseed =
        if i = 0 then seed
        else Some ((Option.value seed ~default:0) + (i * 0x9e3779b1))
      in
      if config.p_share then begin
        Solver.set_export_hook s
          (Some
             (fun lits ~lbd ->
               if lbd <= config.p_max_lbd || Array.length lits <= config.p_max_len
               then begin
                 let taken = ref false in
                 for j = 0 to n - 1 do
                   if j <> i && Ring.push rings.(i).(j) lits then taken := true
                 done;
                 !taken
               end
               else false));
        Solver.set_import_hook s
          (Some
             (fun () ->
               let acc = ref [] in
               for j = 0 to n - 1 do
                 if j <> i then begin
                   let continue = ref true in
                   while !continue do
                     match Ring.pop rings.(j).(i) with
                     | Some c -> acc := c :: !acc
                     | None -> continue := false
                   done
                 end
               done;
               !acc))
      end;
      (* Compose the caller's cancel token in via the fault hook: the
         worker's own token belongs to the race watchdog. *)
      (match cancel with
      | None -> ()
      | Some outer ->
          Solver.set_fault_hook s
            (Some
               (fun _ ->
                 if Solver.cancelled outer then Some Solver.Fault_cancel else None)));
      let r = Solver.solve ~assumptions ~budget ~cancel:token ?seed:wseed s in
      let dropped = ref 0 in
      for j = 0 to n - 1 do
        if j <> i then dropped := !dropped + Ring.dropped rings.(i).(j)
      done;
      if Obs.on () then begin
        let st = Solver.stats s in
        Obs.Trace.span_end "portfolio.worker"
          ~args:
            [
              ( "result",
                match r with
                | Solver.Sat -> "sat"
                | Solver.Unsat -> "unsat"
                | Solver.Unknown _ -> "unknown" );
              ("conflicts", string_of_int st.Solver.conflicts);
            ]
      end;
      {
        w_index = i;
        w_result = r;
        w_stats = Solver.stats s;
        w_model = (match r with Solver.Sat -> Some (Solver.model s) | _ -> None);
        w_adds =
          (if certify then
             List.filter_map
               (function
                 | (_, Drat.Add _) as e -> Some e
                 | (_, Drat.Input _) | (_, Drat.Delete _) -> None)
               (Solver.stamped_proof s)
           else []);
        w_dropped = !dropped;
      }
    in
    let stop_when = if config.p_deterministic then None else Some (fun w -> decided w.w_result) in
    let rows =
      Par.map_governed ~jobs:n ?stop_when
        (fun token i -> run_worker token i)
        (List.init n Fun.id)
    in
    let reports = List.filter_map (fun (r, _) -> Result.to_option r) rows in
    let winner = List.find_opt (fun w -> decided w.w_result) reports in
    let exported =
      List.fold_left (fun a w -> a + w.w_stats.Solver.clauses_exported) 0 reports
    in
    let imported =
      List.fold_left (fun a w -> a + w.w_stats.Solver.clauses_imported) 0 reports
    in
    let dropped = List.fold_left (fun a w -> a + w.w_dropped) 0 reports in
    let derived =
      if certify then
        List.map snd
          (List.sort
             (fun (a, _) (b, _) -> Int.compare a b)
             (List.concat_map (fun w -> w.w_adds) reports))
      else []
    in
    let result, widx, model =
      match winner with
      | Some w -> (w.w_result, w.w_index, w.w_model)
      | None ->
          (* Every worker exhausted: surface the most informative reason —
             a genuine budget exhaustion beats a raced-away [Cancelled]. *)
          let reason =
            List.fold_left
              (fun acc w ->
                match (acc, w.w_result) with
                | None, Solver.Unknown r -> Some r
                | Some Solver.Cancelled, Solver.Unknown r -> Some r
                | acc, _ -> acc)
              None reports
          in
          (Solver.Unknown (Option.value reason ~default:Solver.Cancelled), -1, None)
    in
    (match model with None -> () | Some m -> Solver.inject_model master m);
    if Obs.on () then begin
      Obs.Trace.instant "portfolio.race"
        ~args:
          [
            ("workers", string_of_int n);
            ("winner", match winner with Some w -> string_of_int w.w_index | None -> "none");
          ];
      Obs.Metrics.add (Obs.Metrics.counter "portfolio.exported") exported;
      Obs.Metrics.add (Obs.Metrics.counter "portfolio.imported") imported;
      Obs.Metrics.add (Obs.Metrics.counter "portfolio.dropped") dropped
    end;
    let o_stats =
      match winner with
      | Some w ->
          { w.w_stats with Solver.clauses_exported = exported; clauses_imported = imported }
      | None -> (
          match reports with
          | w :: _ ->
              { w.w_stats with Solver.clauses_exported = exported; clauses_imported = imported }
          | [] -> Solver.stats master)
    in
    {
      o_result = result;
      o_winner = widx;
      o_model = model;
      o_derived = derived;
      o_stats;
      o_reports = List.map (fun w -> (w.w_index, w.w_result, w.w_stats)) reports;
      o_exported = exported;
      o_imported = imported;
      o_dropped = dropped;
    }
  end

(* Chunked static-scheduling Domain pool. See DESIGN.md in this directory
   for why this is deliberately not a work-stealing scheduler: verification
   tasks are few (tens to hundreds) and coarse (milliseconds to minutes), so
   a fixed task array + one atomic chunk cursor is both contention-free and
   deterministic. *)

let default_jobs () = Domain.recommended_domain_count ()

let clamp_jobs jobs n =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Par: jobs must be >= 1";
  min jobs (max n 1)

module Cancel = struct
  type t = bool Atomic.t

  let create () : t = Atomic.make false
  let set (t : t) = Atomic.set t true
  let is_set (t : t) = Atomic.get t
end

(* Run every task, recording per-task outcome and wall-clock seconds into
   result slots indexed like the input (deterministic ordering regardless of
   which domain ran what). Exceptions are captured per task — together with
   their raw backtrace, so a re-raise later loses nothing — and one failing
   task never discards the results of the others.

   Each task gets a cancellation token. [deadline] starts a watchdog domain
   that sets the token of any task running past its per-task allowance. *)
let run_tasks_governed ~jobs ?deadline tasks =
  let n = Array.length tasks in
  let dummy_bt = Printexc.get_raw_backtrace () in
  let results = Array.make n (Error (Exit, dummy_bt)) in
  let times = Array.make n 0.0 in
  let tokens = Array.init n (fun _ -> Cancel.create ()) in
  (* [starts]/[finished] are racy by design: workers write, the watchdog
     reads. Immediate 64-bit values cannot tear, and the worst case of a
     stale read is one 5 ms-late (or early-by-one-poll) cancellation. *)
  let starts = Array.make n nan in
  let finished = Array.make n false in
  let all_done = Atomic.make false in
  let exec i =
    let t0 = Unix.gettimeofday () in
    starts.(i) <- t0;
    (* The span's domain id is recorded by the trace buffer itself; the
       task index is the only argument worth carrying. *)
    if Obs.on () then
      Obs.Trace.span_begin "par.task" ~args:[ ("task", string_of_int i) ];
    let r =
      try Ok (tasks.(i) tokens.(i))
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
    in
    if Obs.on () then
      Obs.Trace.span_end "par.task"
        ~args:[ ("ok", match r with Ok _ -> "true" | Error _ -> "false") ];
    times.(i) <- Unix.gettimeofday () -. t0;
    finished.(i) <- true;
    results.(i) <- r
  in
  let watchdog =
    match deadline with
    | None -> None
    | Some limit ->
        Some
          (Domain.spawn (fun () ->
               while not (Atomic.get all_done) do
                 let now = Unix.gettimeofday () in
                 for i = 0 to n - 1 do
                   if (not (Float.is_nan starts.(i))) && not finished.(i) then
                     if now -. starts.(i) > limit then Cancel.set tokens.(i)
                 done;
                 Unix.sleepf 0.005
               done))
  in
  let jobs = clamp_jobs jobs n in
  (try
     if jobs = 1 then
       (* Inline serial path: bit-identical to a plain loop, no domains. *)
       for i = 0 to n - 1 do
         exec i
       done
     else begin
       (* Fixed-size task queue: the array itself. Each worker claims the
          next chunk of indices with one fetch-and-add; chunks amortize the
          atomic while static indexing keeps results in input order. *)
       let chunk = max 1 (n / (jobs * 4)) in
       let next = Atomic.make 0 in
       let worker () =
         let continue = ref true in
         while !continue do
           let lo = Atomic.fetch_and_add next chunk in
           if lo >= n then continue := false
           else
             for i = lo to min (lo + chunk - 1) (n - 1) do
               exec i
             done
         done
       in
       let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
       worker ();
       Array.iter Domain.join domains
     end
   with e ->
     (* Never leak the watchdog domain, whatever happens in the pool. *)
     Atomic.set all_done true;
     Option.iter Domain.join watchdog;
     raise e);
  Atomic.set all_done true;
  Option.iter Domain.join watchdog;
  (results, times)

let run_tasks ~jobs tasks =
  run_tasks_governed ~jobs (Array.map (fun t (_ : Cancel.t) -> t ()) tasks)

let reraise_first results =
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ -> ())
    results

let map ?jobs f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let results, _ = run_tasks ~jobs tasks in
  reraise_first results;
  Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) results)

let map_timed ?jobs f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let results, times = run_tasks ~jobs tasks in
  reraise_first results;
  List.init (Array.length results)
    (fun i -> ((match results.(i) with Ok v -> v | Error _ -> assert false), times.(i)))

(* Supervision over the governed pool: classify worker failures, restart
   the transient classes with capped exponential backoff, and degrade the
   rest to a typed failure instead of aborting the whole fan-out. *)
module Supervise = struct
  type failure_class = Crash of string | Oom | Deadline | Cancelled

  type restart_policy = {
    max_restarts : int;
    backoff_s : float;
    backoff_cap_s : float;
    retry_oom : bool;
  }

  let default_policy =
    { max_restarts = 2; backoff_s = 0.05; backoff_cap_s = 1.0; retry_oom = true }

  (* Capped exponential backoff before retry round [round] (1-based);
     round 0 — the first attempt — waits nothing. Shared with the
     process-level supervisor in lib/dist. *)
  let backoff_delay policy ~round =
    if round <= 0 then 0.0
    else Float.min policy.backoff_cap_s (policy.backoff_s *. (2.0 ** float_of_int (round - 1)))

  type 'b outcome = {
    s_result : ('b, failure_class) result;
    s_attempts : int;
    s_seconds : float;
  }

  let m_restarts = lazy (Obs.Metrics.counter "par.supervise.restarts")
  let m_gave_up = lazy (Obs.Metrics.counter "par.supervise.gave_up")

  let class_to_string = function
    | Crash _ -> "crash"
    | Oom -> "oom"
    | Deadline -> "deadline"
    | Cancelled -> "cancel"

  (* A raised exception is the only thing to classify: a governed task that
     merely ran out of budget returns an Unknown verdict normally. The
     token tells deadline expiry apart from a genuine crash — the watchdog
     is its only writer. *)
  let classify ~deadline ~token_set e =
    match e with
    | Out_of_memory -> Oom
    | _ when token_set && deadline <> None -> Deadline
    | _ when token_set -> Cancelled
    | e -> Crash (Printexc.to_string e)

  (* Crashes are transient (a sibling freeing memory, a flaky external
     resource); OOM only when the policy says so — under a hard memory
     ceiling a retry would just die again; a deadline would just expire
     again and a cancellation was asked for. *)
  let retryable policy = function
    | Crash _ -> true
    | Oom -> policy.retry_oom
    | Deadline | Cancelled -> false

  (* Worker processes report OOM with this exit code so the coordinator
     can classify it without a shared address space. Picked from the BSD
     sysexits range to stay clear of shell/signal codes. *)
  let oom_exit_code = 77

  (* Classify the exit status of a supervised worker *process* (lib/dist).
     Signals — SIGKILL from the OOM killer or a test harness, SIGSEGV —
     and nonzero exits are crashes unless the worker used the OOM
     convention above. *)
  let classify_exit = function
    | Unix.WEXITED n when n = oom_exit_code -> Oom
    | Unix.WEXITED n -> Crash (Printf.sprintf "exit %d" n)
    | Unix.WSIGNALED s -> Crash (Printf.sprintf "signal %d" s)
    | Unix.WSTOPPED s -> Crash (Printf.sprintf "stopped %d" s)

  let supervise ?jobs ?deadline ?(policy = default_policy) f xs =
    let xs = Array.of_list xs in
    let n = Array.length xs in
    let out : ('b, failure_class) result option array = Array.make n None in
    let attempts = Array.make n 0 in
    let seconds = Array.make n 0.0 in
    let pending = ref (List.init n Fun.id) in
    let round = ref 0 in
    while !pending <> [] do
      if !round > 0 then Unix.sleepf (backoff_delay policy ~round:!round);
      let idxs = Array.of_list !pending in
      let tokens : Cancel.t option array = Array.make (Array.length idxs) None in
      let tasks =
        Array.mapi
          (fun k i token ->
            tokens.(k) <- Some token;
            f token xs.(i))
          idxs
      in
      let results, times = run_tasks_governed ~jobs ?deadline tasks in
      let next = ref [] in
      Array.iteri
        (fun k i ->
          attempts.(i) <- attempts.(i) + 1;
          seconds.(i) <- seconds.(i) +. times.(k);
          match results.(k) with
          | Ok v -> out.(i) <- Some (Ok v)
          | Error (Sys.Break, bt) -> Printexc.raise_with_backtrace Sys.Break bt
          | Error (e, _bt) ->
              let token_set =
                match tokens.(k) with Some t -> Cancel.is_set t | None -> false
              in
              let cls = classify ~deadline ~token_set e in
              if retryable policy cls && attempts.(i) <= policy.max_restarts then begin
                next := i :: !next;
                if Obs.on () then begin
                  Obs.Metrics.incr (Lazy.force m_restarts);
                  Obs.Trace.instant "par.supervise.restart"
                    ~args:
                      [
                        ("task", string_of_int i);
                        ("class", class_to_string cls);
                        ("attempt", string_of_int attempts.(i));
                      ]
                end
              end
              else begin
                out.(i) <- Some (Error cls);
                if Obs.on () then begin
                  Obs.Metrics.incr (Lazy.force m_gave_up);
                  Obs.Trace.instant "par.supervise.gave_up"
                    ~args:
                      [ ("task", string_of_int i); ("class", class_to_string cls) ]
                end
              end)
        idxs;
      pending := List.rev !next;
      incr round
    done;
    List.init n (fun i ->
        {
          s_result = (match out.(i) with Some r -> r | None -> assert false);
          s_attempts = attempts.(i);
          s_seconds = seconds.(i);
        })
end

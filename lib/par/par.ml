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

(* Run every task, recording per-task outcome and wall-clock seconds into
   result slots indexed like the input (deterministic ordering regardless of
   which domain ran what). Exceptions are captured per task — together with
   their raw backtrace, so a re-raise later loses nothing — and one failing
   task never discards the results of the others. *)
let run_tasks ~jobs tasks =
  let n = Array.length tasks in
  let dummy_bt = Printexc.get_raw_backtrace () in
  let results = Array.make n (Error (Exit, dummy_bt)) in
  let times = Array.make n 0.0 in
  let exec i =
    let t0 = Unix.gettimeofday () in
    (* The span's domain id is recorded by the trace buffer itself; the
       task index is the only argument worth carrying. *)
    if Obs.on () then
      Obs.Trace.span_begin "par.task" ~args:[ ("task", string_of_int i) ];
    let r =
      try Ok (tasks.(i) ())
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
    in
    if Obs.on () then
      Obs.Trace.span_end "par.task"
        ~args:[ ("ok", match r with Ok _ -> "true" | Error _ -> "false") ];
    times.(i) <- Unix.gettimeofday () -. t0;
    results.(i) <- r
  in
  let jobs = clamp_jobs jobs n in
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
  end;
  (results, times)

let reraise_first results =
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ -> ())
    results

let map_timed ?jobs f xs =
  let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
  let results, times = run_tasks ~jobs tasks in
  reraise_first results;
  List.init (Array.length results)
    (fun i -> ((match results.(i) with Ok v -> v | Error _ -> assert false), times.(i)))

let map ?jobs f xs = List.map fst (map_timed ?jobs f xs)

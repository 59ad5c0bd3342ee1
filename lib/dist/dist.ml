(* Distributed sharded campaigns. See dist.mli and DESIGN.md. *)

type cell = { cell_key : string; cell_hint : float }

type row = {
  r_key : string;
  r_decided : bool;
  r_payload : string;
  r_seconds : float;
  r_warm : bool;
}

type stats = {
  d_workers : int;
  d_cells : int;
  d_skipped : int;
  d_dispatched : int;
  d_merged : int;
  d_restarts : int;
  d_gave_up : int;
  d_degraded : int;
  d_campaign : Persist.Campaign.stats;
}

type kill = { k_worker : int; k_after : int; k_mode : [ `Restart | `Abort ] }

exception Aborted of string

(* ------------------------------------------------------------------ *)
(* Restart policy                                                      *)
(* ------------------------------------------------------------------ *)

type restart_policy = {
  max_restarts : int;
  backoff_s : float;
  backoff_cap_s : float;
}

let default_policy = { max_restarts = 2; backoff_s = 0.05; backoff_cap_s = 1.0 }

(* Capped exponential backoff before retry round [round] (1-based);
   round 0 — the first attempt — waits nothing. *)
let backoff_delay policy ~round =
  if round <= 0 then 0.0
  else Float.min policy.backoff_cap_s (policy.backoff_s *. (2.0 ** float_of_int (round - 1)))

let m_dispatched = lazy (Obs.Metrics.counter "dist.dispatched")
let m_restarts = lazy (Obs.Metrics.counter "dist.restarts")
let m_merged = lazy (Obs.Metrics.counter "dist.merged")

(* ------------------------------------------------------------------ *)
(* Solver registry                                                     *)
(* ------------------------------------------------------------------ *)

(* Workers are fresh processes (a re-exec starts from a clean runtime,
   sharing none of the coordinator's heap, descriptors or unflushed
   buffers), so a solve function cannot travel as a closure: it is named here, and
   the name plus a small [arg] string travel to the worker through its
   environment, where [worker_entry] resolves them against the same
   registry. *)
let solvers : (string, arg:string -> string -> bool * string) Hashtbl.t =
  Hashtbl.create 8

let register name f = Hashtbl.replace solvers name f
let lookup name = Hashtbl.find_opt solvers name

let env_solver = "GQED_DIST_WORKER"
let env_arg = "GQED_DIST_ARG"
let env_index = "GQED_DIST_INDEX"

(* The shard path older versions wrote; nothing writes it now. *)
let worker_journal path i = Printf.sprintf "%s.worker-%d" path i

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)
(* ------------------------------------------------------------------ *)

(* Runs in the worker process. Protocol: read "CELL <key>" lines, solve,
   answer "ACK <d|u> <seconds> <payload_len> <key>\n" followed by exactly
   [payload_len] payload bytes; "DONE" or EOF (coordinator died) ends.
   Any exception, [Out_of_memory] included, exits 70: the coordinator
   treats every death with work outstanding as a crash. *)
let worker_main ~solve ~idx ~rfd ~wfd =
  let ic = Unix.in_channel_of_descr rfd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> 0
    | "DONE" -> 0
    | line when String.length line > 5 && String.sub line 0 5 = "CELL " -> (
        let key = String.sub line 5 (String.length line - 5) in
        let t0 = Unix.gettimeofday () in
        match solve key with
        | exception e ->
            prerr_endline (Printf.sprintf "gqed dist worker %d: %s" idx (Printexc.to_string e));
            70
        | decided, payload ->
            let seconds = Unix.gettimeofday () -. t0 in
            (* %.17g round-trips the float exactly. *)
            write_all wfd
              (Printf.sprintf "ACK %c %.17g %d %s\n"
                 (if decided then 'd' else 'u')
                 seconds (String.length payload) key);
            write_all wfd payload;
            loop ())
    | line ->
        prerr_endline (Printf.sprintf "gqed dist worker %d: bad command %S" idx line);
        70
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type wstate = {
  w_idx : int;
  mutable w_pid : int;
  mutable w_in : Unix.file_descr;  (* coordinator -> worker commands *)
  mutable w_out : Unix.file_descr;  (* worker -> coordinator frames *)
  mutable w_buf : Bytes.t;  (* received bytes; frames parse from [w_pos] *)
  mutable w_pos : int;
  mutable w_len : int;
  mutable w_outstanding : string list;  (* dispatched, unacked, oldest first *)
  mutable w_acks : int;
  mutable w_restarts : int;
  mutable w_state : [ `Live | `Done | `Gone ];
}

(* A frame header longer than this, or a payload length beyond it, is a
   protocol error rather than a reason to buffer without bound. *)
let max_header = 64 * 1024
let max_payload = 64 * 1024 * 1024

(* The hook a hosting executable calls first thing in [main]: when the
   worker environment variables are present, this process IS a worker —
   resolve the solver, speak the protocol on stdin/stdout, and never
   return. [Unix._exit] skips at_exit work that belongs to the host. *)
let worker_entry () =
  match Sys.getenv_opt env_solver with
  | None -> ()
  | Some name ->
      let fail msg =
        prerr_endline ("gqed dist worker: " ^ msg);
        Unix._exit 70
      in
      let idx =
        match Option.bind (Sys.getenv_opt env_index) int_of_string_opt with
        | Some i -> i
        | None -> fail ("bad or unset " ^ env_index)
      in
      let arg = Option.value ~default:"" (Sys.getenv_opt env_arg) in
      let code =
        match lookup name with
        | None -> fail (Printf.sprintf "solver %S not registered in this executable" name)
        | Some mk -> (
            try worker_main ~solve:(mk ~arg) ~idx ~rfd:Unix.stdin ~wfd:Unix.stdout
            with e ->
              (try prerr_endline ("gqed dist worker: " ^ Printexc.to_string e)
               with _ -> ());
              70)
      in
      Unix._exit code

(* Spawn one worker: re-exec this executable with the worker environment
   set, protocol piped over its stdin/stdout. [Unix.create_process_env]
   execs a fresh runtime, so the worker inherits nothing of the
   coordinator's state but the pipes. *)
let spawn ~solver ~arg idx =
  let c2w_r, c2w_w = Unix.pipe () in
  let w2c_r, w2c_w = Unix.pipe () in
  Unix.set_close_on_exec c2w_w;
  Unix.set_close_on_exec w2c_r;
  let is_dist_var s =
    String.length s >= 10 && String.sub s 0 10 = "GQED_DIST_"
  in
  let env =
    Array.append
      (Array.of_list
         (List.filter (fun s -> not (is_dist_var s)) (Array.to_list (Unix.environment ()))))
      [|
        env_solver ^ "=" ^ solver;
        env_arg ^ "=" ^ arg;
        env_index ^ "=" ^ string_of_int idx;
      |]
  in
  let exe = Sys.executable_name in
  let pid = Unix.create_process_env exe [| exe |] env c2w_r w2c_w Unix.stderr in
  Unix.close c2w_r;
  Unix.close w2c_w;
  (pid, c2w_w, w2c_r)

(* In-process supervised solve: the [workers <= 1] baseline and the
   degraded path once every worker has given up. Mirrors the process
   supervisor: any exception is a crash, retried with capped backoff;
   exhaustion degrades to an empty Unknown row (re-run on resume)
   instead of aborting the campaign. *)
let solve_inline ~policy ~campaign ~solve ~restarts ~gave_up key =
  let t0 = Unix.gettimeofday () in
  let rec attempt n =
    match solve key with
    | (decided, payload) -> Some (decided, payload)
    | exception Sys.Break -> raise Sys.Break
    | exception _ ->
        if n < policy.max_restarts then begin
          incr restarts;
          if Obs.on () then Obs.Metrics.incr (Lazy.force m_restarts);
          Unix.sleepf (backoff_delay policy ~round:(n + 1));
          attempt (n + 1)
        end
        else begin
          incr gave_up;
          None
        end
  in
  let decided, payload =
    match attempt 0 with Some r -> r | None -> (false, "")
  in
  let seconds = Unix.gettimeofday () -. t0 in
  Persist.Campaign.record ~seconds campaign ~decided ~key ~payload;
  { r_key = key; r_decided = decided; r_payload = payload; r_seconds = seconds; r_warm = false }

(* Parse "ACK <d|u> <seconds> <payload_len> <key>" (newline stripped). *)
let parse_header line =
  match String.split_on_char ' ' line with
  | "ACK" :: flag :: seconds :: len :: (_ :: _ as key) -> (
      match (flag, float_of_string_opt seconds, int_of_string_opt len) with
      | ("d" | "u"), Some seconds, Some len
        when Float.is_finite seconds && len >= 0 && len <= max_payload ->
          Some (flag = "d", seconds, len, String.concat " " key)
      | _ -> None)
  | _ -> None

(* The coordinator is the campaign journal's only writer: each complete
   frame is journaled here before the worker's window is topped up, so
   a worker killed after solving costs only its unacked cells' re-work. *)
let run_distributed ~nw ~batch ~policy ~kill ~solver ~arg ~campaign ~done_rows
    ~dispatched ~restarts ~gave_up ~merged queue =
  let pending = ref queue in
  let take () =
    match !pending with [] -> None | k :: tl -> pending := tl; Some k
  in
  let requeue keys = pending := keys @ !pending in
  let kill_armed = ref kill in
  let workers = Array.init nw (fun i ->
      {
        w_idx = i; w_pid = -1; w_in = Unix.stdin; w_out = Unix.stdin;
        w_buf = Bytes.create 4096; w_pos = 0; w_len = 0; w_outstanding = [];
        w_acks = 0; w_restarts = 0; w_state = `Gone;
      })
  in
  let respawn w =
    let pid, win, wout = spawn ~solver ~arg w.w_idx in
    w.w_pid <- pid;
    w.w_in <- win;
    w.w_out <- wout;
    w.w_pos <- 0;
    w.w_len <- 0;
    w.w_state <- `Live
  in
  let send w line =
    try
      write_all w.w_in (line ^ "\n");
      true
    with Unix.Unix_error _ | Sys_error _ -> false
  in
  let rec feed w =
    if w.w_state = `Live then
      if List.length w.w_outstanding < batch then
        match take () with
        | Some key ->
            if send w ("CELL " ^ key) then begin
              w.w_outstanding <- w.w_outstanding @ [ key ];
              incr dispatched;
              if Obs.on () then Obs.Metrics.incr (Lazy.force m_dispatched);
              feed w
            end
            else requeue [ key ] (* pipe gone; the EOF path reaps it *)
        | None ->
            if w.w_outstanding = [] then begin
              ignore (send w "DONE");
              w.w_state <- `Done
            end
  in
  let close_worker_fds w =
    (try Unix.close w.w_in with Unix.Unix_error _ -> ());
    try Unix.close w.w_out with Unix.Unix_error _ -> ()
  in
  let abort msg =
    Array.iter
      (fun w ->
        if w.w_state <> `Gone then begin
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
          close_worker_fds w;
          w.w_state <- `Gone
        end)
      workers;
    raise (Aborted msg)
  in
  let handle_eof w =
    close_worker_fds w;
    (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
    match w.w_state with
    | `Done | `Gone ->
        (* A worker sent DONE owes no frames, and every cell it answered
           is already journaled: however it died, there is nothing to
           requeue and nothing to restart it for. *)
        w.w_state <- `Gone
    | `Live ->
        (* Whatever the exit status — a signal, exit 70 from a raising
           solve, even exit 0 — dying with work outstanding is a crash. *)
        requeue w.w_outstanding;
        w.w_outstanding <- [];
        w.w_state <- `Gone;
        if w.w_restarts < policy.max_restarts then begin
          w.w_restarts <- w.w_restarts + 1;
          incr restarts;
          if Obs.on () then begin
            Obs.Metrics.incr (Lazy.force m_restarts);
            Obs.Trace.instant "dist.restart" ~args:[ ("worker", string_of_int w.w_idx) ]
          end;
          Unix.sleepf (backoff_delay policy ~round:w.w_restarts);
          respawn w;
          feed w
        end
        else begin
          incr gave_up;
          if Obs.on () then
            Obs.Trace.instant "dist.gave_up" ~args:[ ("worker", string_of_int w.w_idx) ]
        end
  in
  (* A frame the coordinator cannot parse leaves the stream unframeable:
     treat the worker as crashed. *)
  let protocol_error w =
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    handle_eof w
  in
  let handle_frame w ~decided ~seconds ~key ~payload =
    Persist.Campaign.record ~seconds campaign ~decided ~key ~payload;
    incr merged;
    if Obs.on () then Obs.Metrics.incr (Lazy.force m_merged);
    Hashtbl.replace done_rows key
      { r_key = key; r_decided = decided; r_payload = payload; r_seconds = seconds; r_warm = false };
    let rec remove = function
      | [] -> []
      | k :: tl -> if k = key then tl else k :: remove tl
    in
    w.w_outstanding <- remove w.w_outstanding;
    w.w_acks <- w.w_acks + 1;
    (match !kill_armed with
    | Some k when k.k_worker = w.w_idx && w.w_acks >= k.k_after -> (
        kill_armed := None;
        match k.k_mode with
        | `Restart -> (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ())
        | `Abort ->
            abort
              (Printf.sprintf "campaign aborted by kill hook (worker %d after %d acks)"
                 k.k_worker k.k_after))
    | _ -> ());
    if w.w_state = `Live then feed w
  in
  let rec newline b i stop =
    if i >= stop then None else if Bytes.get b i = '\n' then Some i else newline b (i + 1) stop
  in
  (* Parse every complete frame in [w_buf] from [w_pos]; a partial frame
     waits for the next read. *)
  let rec drain w =
    match newline w.w_buf w.w_pos w.w_len with
    | Some nl -> (
        let line = Bytes.sub_string w.w_buf w.w_pos (nl - w.w_pos) in
        match parse_header line with
        | None -> protocol_error w
        | Some (decided, seconds, len, key) ->
            if not (List.mem key w.w_outstanding) then protocol_error w
            else if w.w_len - (nl + 1) >= len then begin
              let payload = Bytes.sub_string w.w_buf (nl + 1) len in
              w.w_pos <- nl + 1 + len;
              handle_frame w ~decided ~seconds ~key ~payload;
              if w.w_state <> `Gone then drain w
            end)
    | None -> if w.w_len - w.w_pos > max_header then protocol_error w
  in
  let handle_readable w =
    (* Slide the unparsed tail to the front, then make room for a read. *)
    if w.w_pos > 0 then begin
      Bytes.blit w.w_buf w.w_pos w.w_buf 0 (w.w_len - w.w_pos);
      w.w_len <- w.w_len - w.w_pos;
      w.w_pos <- 0
    end;
    if Bytes.length w.w_buf - w.w_len < 4096 then begin
      let grown = Bytes.create (2 * Bytes.length w.w_buf + 4096) in
      Bytes.blit w.w_buf 0 grown 0 w.w_len;
      w.w_buf <- grown
    end;
    match Unix.read w.w_out w.w_buf w.w_len (Bytes.length w.w_buf - w.w_len) with
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
        handle_eof w
    | 0 -> handle_eof w
    | n ->
        w.w_len <- w.w_len + n;
        drain w
  in
  try
    Array.iter (fun w -> respawn w) workers;
    Array.iter (fun w -> feed w) workers;
    let live () =
      Array.to_list workers |> List.filter (fun w -> w.w_state <> `Gone)
    in
    let rec loop () =
      match live () with
      | [] -> ()
      | ws -> (
          let fds = List.map (fun w -> w.w_out) ws in
          match Unix.select fds [] [] 1.0 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | ready, _, _ ->
              List.iter
                (fun fd ->
                  match List.find_opt (fun w -> w.w_out = fd && w.w_state <> `Gone) ws with
                  | Some w -> handle_readable w
                  | None -> ())
                ready;
              loop ())
    in
    loop ()
  with
  | Aborted _ as e -> raise e
  | e ->
      (* ^C or an unexpected coordinator error: don't leave orphans. *)
      Array.iter
        (fun w ->
          if w.w_state <> `Gone then begin
            (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
            close_worker_fds w
          end)
        workers;
      raise e

let run ?(workers = 2) ?(batch = 2) ?(policy = default_policy)
    ?(sync = true) ?kill ?(arg = "") ~resume ~force ~journal
    ~solver cells =
  Obs.Trace.with_span "dist.run" (fun () ->
      match (lookup solver, List.find_opt (fun c -> String.contains c.cell_key '\n') cells) with
      | None, _ -> Error (Printf.sprintf "dist solver %S is not registered" solver)
      | _, Some c -> Error (Printf.sprintf "cell key contains a newline: %S" c.cell_key)
      | Some mk, None -> (
          let solve = mk ~arg in
          match Persist.Campaign.start ~sync ~resume ~force journal with
          | Error msg -> Error msg
          | Ok campaign ->
              let seen = Hashtbl.create 64 in
              let cells =
                List.filter
                  (fun c ->
                    if Hashtbl.mem seen c.cell_key then false
                    else begin
                      Hashtbl.add seen c.cell_key ();
                      true
                    end)
                  cells
              in
              let warm = Hashtbl.create 64 in
              let cold =
                List.filter
                  (fun c ->
                    match Persist.Campaign.find_decided campaign c.cell_key with
                    | Some payload ->
                        let seconds =
                          Option.value ~default:0.
                            (Persist.Campaign.last_seconds campaign c.cell_key)
                        in
                        Hashtbl.add warm c.cell_key
                          {
                            r_key = c.cell_key;
                            r_decided = true;
                            r_payload = payload;
                            r_seconds = seconds;
                            r_warm = true;
                          };
                        false
                    | None -> true)
                  cells
              in
              (* Hardest first: measured solve times from the journal beat
                 the cold size heuristic; within each class, biggest first.
                 Re-run Unknowns come with real times, so they lead. *)
              let hardness c =
                match Persist.Campaign.last_seconds campaign c.cell_key with
                | Some s -> (1, s)
                | None -> (0, c.cell_hint)
              in
              let queue =
                List.stable_sort (fun a b -> compare (hardness b) (hardness a)) cold
                |> List.map (fun c -> c.cell_key)
              in
              let done_rows : (string, row) Hashtbl.t = Hashtbl.create 64 in
              let dispatched = ref 0 and restarts = ref 0 and gave_up = ref 0 in
              let merged = ref 0 and degraded = ref 0 in
              let nw = if queue = [] then 0 else min workers (List.length queue) in
              let outcome =
                if nw <= 1 then begin
                  List.iter
                    (fun key ->
                      incr dispatched;
                      Hashtbl.replace done_rows key
                        (solve_inline ~policy ~campaign ~solve ~restarts ~gave_up key))
                    queue;
                  Ok ()
                end
                else begin
                  let old_pipe =
                    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
                    with Invalid_argument _ -> None
                  in
                  Fun.protect
                    ~finally:(fun () ->
                      match old_pipe with
                      | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
                      | None -> ())
                    (fun () ->
                      match
                        run_distributed ~nw ~batch ~policy ~kill ~solver ~arg ~campaign
                          ~done_rows ~dispatched ~restarts ~gave_up ~merged queue
                      with
                      | exception Aborted msg ->
                          Persist.Campaign.close campaign;
                          Error msg
                      | () ->
                          (* Every worker gave up with work left: degrade to
                             in-process so the campaign still answers every
                             cell. *)
                          List.iter
                            (fun key ->
                              if not (Hashtbl.mem done_rows key) then begin
                                incr degraded;
                                Hashtbl.replace done_rows key
                                  (solve_inline ~policy ~campaign ~solve ~restarts
                                     ~gave_up key)
                              end)
                            queue;
                          Ok ())
                end
              in
              (match outcome with
              | Error msg -> Error msg
              | Ok () ->
                  let rows =
                    List.map
                      (fun c ->
                        match Hashtbl.find_opt warm c.cell_key with
                        | Some r -> r
                        | None -> (
                            match Hashtbl.find_opt done_rows c.cell_key with
                            | Some r -> r
                            | None ->
                                {
                                  r_key = c.cell_key;
                                  r_decided = false;
                                  r_payload = "";
                                  r_seconds = 0.;
                                  r_warm = false;
                                }))
                      cells
                  in
                  let d_campaign = Persist.Campaign.stats campaign in
                  Persist.Campaign.close campaign;
                  Ok
                    ( rows,
                      {
                        d_workers = (if nw <= 1 then 0 else nw);
                        d_cells = List.length cells;
                        d_skipped = Hashtbl.length warm;
                        d_dispatched = !dispatched;
                        d_merged = !merged;
                        d_restarts = !restarts;
                        d_gave_up = !gave_up;
                        d_degraded = !degraded;
                        d_campaign;
                      } ))))

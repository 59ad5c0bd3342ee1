(* Tests for the distributed campaign layer (Dist): payload framing over
   the worker pipe (empty, frame-lookalike and multi-read payloads; a
   non-frame line is a worker crash), hardest-first scheduling,
   supervision (worker crash restart, OOM restarted like a crash, idle
   deaths left alone, in-process retry and give-up), and the end-to-end
   resume-equivalence sweep — SIGKILL a worker after every ack count in
   turn, resume, and the matrix must be bit-for-bit the serial run's.

   Multi-worker runs re-exec the test binary itself, so every solver
   used with [workers >= 2] is registered by name in [register_solvers]
   (called from test_main before [Dist.worker_entry]) and rebuilds its
   state from the [arg] string — only the [workers <= 1] in-process
   solvers may capture test-local state. *)

let tmp_path tag =
  let file = Filename.temp_file ("gqed-dist-" ^ tag) ".jrnl" in
  Sys.remove file;
  file

let with_tmp tag f =
  let path = tmp_path tag in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Files named [path ^ ".worker-*"]: the per-worker shards older versions
   wrote. The coordinator is the only journal writer, so there are none. *)
let shard_files path =
  let prefix = Filename.basename path ^ ".worker-" in
  Sys.readdir (Filename.dirname path)
  |> Array.to_list
  |> List.filter (String.starts_with ~prefix)

let check_no_shards what path =
  Alcotest.(check (list string)) (what ^ ": no shard files") [] (shard_files path)

let fast_policy = { Dist.max_restarts = 2; backoff_s = 0.001; backoff_cap_s = 0.002 }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let row_sig (r : Dist.row) = (r.Dist.r_key, r.Dist.r_decided, r.Dist.r_payload)
let rows_sig rows = List.map row_sig rows
let matrix = Alcotest.(list (triple string bool string))

let run_ok ?workers ?batch ?policy ?kill ?arg ~resume ~journal ~solver cells =
  match
    Dist.run ?workers ?batch ?policy ?kill ?arg ~resume ~force:false ~journal ~solver
      cells
  with
  | Ok v -> v
  | Error msg -> Alcotest.failf "dist run (%s): %s" journal msg

(* ------------------------------------------------------------------ *)
(* Solvers (registered for worker processes)                           *)
(* ------------------------------------------------------------------ *)

let toy_cells n =
  List.init n (fun i ->
      { Dist.cell_key = Printf.sprintf "cell-%02d" i; cell_hint = float_of_int (n - i) })

let toy_solve ~arg:_ key = (true, "v:" ^ key)

(* Deterministic mixed matrix: every 4th cell is an Unknown, which a
   resume must re-solve rather than skip. *)
let toy_matrix_solve ~arg:_ key =
  if Hashtbl.hash key mod 4 = 0 then (false, "unk:" ^ key) else (true, "v:" ^ key)

(* First process to touch the poisoned cell leaves the marker file named
   by [arg] and dies; the restarted (or sibling) worker then succeeds —
   a transient crash in process form. *)
let crash_once_solve ~arg key =
  if key = "cell-00" && not (Sys.file_exists arg) then begin
    let oc = open_out arg in
    close_out oc;
    failwith "injected worker crash"
  end
  else (true, "v:" ^ key)

let crash_always_solve ~arg:_ key =
  if key = "cell-00" then failwith "injected permanent crash" else (true, "v:" ^ key)

let oom_solve ~arg:_ key =
  if key = "cell-00" then raise Out_of_memory else (true, "v:" ^ key)

(* Payloads the frame must carry verbatim: empty, one that looks like a
   frame header, and one of every byte value larger than a pipe buffer
   and a single 4096-byte read. *)
let framing_payload = function
  | "cell-00" -> ""
  | "cell-01" -> "\nACK d 0.1 cell-01\n"
  | "cell-02" -> String.init (70 * 1024) (fun i -> Char.chr (i land 0xff))
  | key -> "v:" ^ key

let framing_solve ~arg:_ key = (key <> "cell-03", framing_payload key)

(* Writes a line that is not a frame to the frame channel before answering. *)
let noise = "noise: not a frame"

let noisy_solve ~arg:_ key =
  if key = "cell-00" then begin
    let line = noise ^ "\n" in
    ignore (Unix.write_substring Unix.stdout line 0 (String.length line))
  end;
  (true, "v:" ^ key)

(* Real mutant matrix over a registry design: arg is "<name>:<mutants>",
   from which both the coordinator's cell list and the worker's
   key->design table are rebuilt. *)
let registry_entry name =
  match List.find_opt (fun e -> e.Designs.Entry.name = name) Designs.Registry.all with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %s" name

let real_build arg =
  let name, mutants =
    match String.index_opt arg ':' with
    | Some i ->
        ( String.sub arg 0 i,
          int_of_string (String.sub arg (i + 1) (String.length arg - i - 1)) )
    | None -> (arg, max_int)
  in
  let e = registry_entry name in
  let bound = e.Designs.Entry.rec_bound in
  let muts = List.map snd (Mutation.mutants e.Designs.Entry.design) in
  let muts =
    if mutants >= List.length muts then muts
    else List.filteri (fun i _ -> i < mutants) muts
  in
  let designs = e.Designs.Entry.design :: muts in
  let by_key = Hashtbl.create 16 in
  let cells =
    List.map
      (fun d ->
        let key = Qed.Checks.campaign_key Qed.Checks.Gqed d e.Designs.Entry.iface ~bound in
        Hashtbl.replace by_key key d;
        { Dist.cell_key = key; cell_hint = Qed.Checks.campaign_hint d ~bound })
      designs
  in
  let solve key =
    let d = Hashtbl.find by_key key in
    let r = Qed.Checks.run Qed.Checks.Gqed d e.Designs.Entry.iface ~bound in
    (Qed.Checks.report_decided r, Qed.Checks.encode_report r)
  in
  (cells, solve)

let real_solvers : (string, string -> bool * string) Hashtbl.t = Hashtbl.create 4

let real_solve ~arg key =
  let solve =
    match Hashtbl.find_opt real_solvers arg with
    | Some s -> s
    | None ->
        let _, s = real_build arg in
        Hashtbl.add real_solvers arg s;
        s
  in
  solve key

let register_solvers () =
  Dist.register "test-toy" toy_solve;
  Dist.register "test-toy-matrix" toy_matrix_solve;
  Dist.register "test-crash-once" crash_once_solve;
  Dist.register "test-crash-always" crash_always_solve;
  Dist.register "test-oom" oom_solve;
  Dist.register "test-framing" framing_solve;
  Dist.register "test-noisy" noisy_solve;
  Dist.register "test-real" real_solve

let start_campaign path =
  match Persist.Campaign.start ~resume:false ~force:false path with
  | Ok c -> c
  | Error msg -> Alcotest.failf "campaign %s: %s" path msg

(* ------------------------------------------------------------------ *)
(* Scheduling and rows (in-process lanes: solvers may capture state)   *)
(* ------------------------------------------------------------------ *)

let test_hardest_first_order () =
  with_tmp "hardest" (fun path ->
      (* Seed measured times (undecided so nothing is skipped): slow and
         fast have journaled seconds, the cold-* cells only hints. *)
      let c = start_campaign path in
      Persist.Campaign.record ~seconds:0.5 c ~decided:false ~key:"slow" ~payload:"";
      Persist.Campaign.record ~seconds:0.01 c ~decided:false ~key:"fast" ~payload:"";
      Persist.Campaign.close c;
      let order = ref [] in
      Dist.register "test-track" (fun ~arg:_ key ->
          order := key :: !order;
          (true, "v:" ^ key));
      let cells =
        [
          { Dist.cell_key = "cold-small"; cell_hint = 1.0 };
          { Dist.cell_key = "fast"; cell_hint = 0.0 };
          { Dist.cell_key = "cold-big"; cell_hint = 9.0 };
          { Dist.cell_key = "slow"; cell_hint = 0.0 };
        ]
      in
      let rows, stats = run_ok ~workers:1 ~resume:true ~journal:path ~solver:"test-track" cells in
      Alcotest.(check (list string))
        "measured beat hints, biggest first within each class"
        [ "slow"; "fast"; "cold-big"; "cold-small" ]
        (List.rev !order);
      Alcotest.(check (list string)) "rows in input order"
        [ "cold-small"; "fast"; "cold-big"; "slow" ]
        (List.map (fun r -> r.Dist.r_key) rows);
      Alcotest.(check bool) "no rows warm" true
        (List.for_all (fun r -> not r.Dist.r_warm) rows);
      Alcotest.(check int) "in-process run" 0 stats.Dist.d_workers)

let test_warm_rows_on_repeat () =
  with_tmp "warm" (fun path ->
      let cells = toy_cells 4 in
      let rows1, _ = run_ok ~workers:1 ~resume:false ~journal:path ~solver:"test-toy" cells in
      Alcotest.(check bool) "first run cold" true
        (List.for_all (fun r -> not r.Dist.r_warm) rows1);
      Dist.register "test-boom" (fun ~arg:_ _key ->
          Alcotest.fail "skippable cell re-solved");
      let rows2, stats = run_ok ~workers:1 ~resume:true ~journal:path ~solver:"test-boom" cells in
      Alcotest.(check bool) "second run warm" true
        (List.for_all (fun r -> r.Dist.r_warm) rows2);
      Alcotest.(check matrix) "same matrix" (rows_sig rows1) (rows_sig rows2);
      Alcotest.(check int) "all skipped" 4 stats.Dist.d_skipped)

let test_unregistered_solver_rejected () =
  with_tmp "noreg" (fun path ->
      match
        Dist.run ~resume:false ~force:false ~journal:path ~solver:"no-such-solver"
          (toy_cells 2)
      with
      | Ok _ -> Alcotest.fail "unregistered solver accepted"
      | Error msg ->
          if not (contains ~sub:"not registered" msg) then
            Alcotest.failf "unexpected error: %s" msg)

(* ------------------------------------------------------------------ *)
(* Process supervision                                                 *)
(* ------------------------------------------------------------------ *)

let test_worker_crash_restarted () =
  with_tmp "crashonce" (fun path ->
      let marker = path ^ ".crashed-once" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
        (fun () ->
          let rows, stats =
            run_ok ~workers:2 ~batch:1 ~policy:fast_policy ~arg:marker ~resume:false
              ~journal:path ~solver:"test-crash-once" (toy_cells 8)
          in
          Alcotest.(check bool) "every cell decided" true
            (List.for_all (fun r -> r.Dist.r_decided) rows);
          Alcotest.(check (option (triple string bool string)))
            "poisoned cell solved on retry"
            (Some ("cell-00", true, "v:cell-00"))
            (List.find_opt (fun r -> r.Dist.r_key = "cell-00") rows
            |> Option.map row_sig);
          if stats.Dist.d_restarts < 1 then
            Alcotest.failf "expected a worker restart, saw %d" stats.Dist.d_restarts))

let test_oom_restarted_like_crash () =
  (* Out_of_memory has no class of its own: the worker dies like any
     crash, is restarted under the policy, and once the restarts are
     spent the cell degrades to an undecided row (re-run on resume);
     every other cell still gets its verdict. *)
  with_tmp "oom" (fun path ->
      let rows, stats =
        run_ok ~workers:2 ~batch:1 ~policy:fast_policy ~resume:false ~journal:path
          ~solver:"test-oom" (toy_cells 6)
      in
      if stats.Dist.d_restarts < 1 then
        Alcotest.failf "expected a worker restart, saw %d" stats.Dist.d_restarts;
      (match List.find_opt (fun r -> r.Dist.r_key = "cell-00") rows with
      | Some r ->
          Alcotest.(check bool) "OOM cell undecided" false r.Dist.r_decided
      | None -> Alcotest.fail "OOM cell missing from rows");
      Alcotest.(check int) "only the OOM cell is undecided" 5
        (List.length (List.filter (fun r -> r.Dist.r_decided) rows));
      if stats.Dist.d_gave_up < 1 then
        Alcotest.failf "expected give-ups, saw %d" stats.Dist.d_gave_up)

(* Worker 0 acks its one cell, is sent DONE and is then SIGKILLed: it
   owes no acks and its cell is already in its shard, so supervision must
   not spend a backoff and a respawn on it. *)
let test_idle_worker_death_not_restarted () =
  with_tmp "idle" (fun path ->
      let kill = { Dist.k_worker = 0; k_after = 1; k_mode = `Restart } in
      let rows, stats =
        run_ok ~workers:2 ~batch:1 ~policy:fast_policy ~kill ~resume:false
          ~journal:path ~solver:"test-toy" (toy_cells 2)
      in
      Alcotest.(check (list (triple string bool string)))
        "every row decided"
        [ ("cell-00", true, "v:cell-00"); ("cell-01", true, "v:cell-01") ]
        (rows_sig rows);
      Alcotest.(check int) "idle worker not restarted" 0 stats.Dist.d_restarts)

(* The in-process path ([workers <= 1], and the degraded fallback once
   every worker gave up) supervises solves itself: a crash is retried
   under the policy and an exhausted cell degrades to an undecided row. *)
let test_inline_restarts_and_give_up () =
  let cells = toy_cells 4 in
  with_tmp "inline-once" (fun path ->
      let marker = path ^ ".crashed-once" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
        (fun () ->
          let rows, stats =
            run_ok ~workers:1 ~policy:fast_policy ~arg:marker ~resume:false
              ~journal:path ~solver:"test-crash-once" cells
          in
          Alcotest.(check bool) "crash-once: every cell decided" true
            (List.for_all (fun r -> r.Dist.r_decided) rows);
          Alcotest.(check int) "crash-once: one retry" 1 stats.Dist.d_restarts;
          Alcotest.(check int) "crash-once: no give-up" 0 stats.Dist.d_gave_up));
  with_tmp "inline-always" (fun path ->
      let rows, stats =
        run_ok ~workers:1 ~policy:fast_policy ~resume:false ~journal:path
          ~solver:"test-crash-always" cells
      in
      Alcotest.(check (list string)) "crash-always: only cell-00 undecided"
        [ "cell-00" ]
        (List.filter_map
           (fun r -> if r.Dist.r_decided then None else Some r.Dist.r_key)
           rows);
      Alcotest.(check int) "crash-always: policy exhausted"
        fast_policy.Dist.max_restarts stats.Dist.d_restarts;
      if stats.Dist.d_gave_up < 1 then
        Alcotest.failf "expected a give-up, saw %d" stats.Dist.d_gave_up)

(* Rows come back in input order although the queue runs hardest-first:
   the hints rank the cells in reverse input order, and the degraded row
   of the always-crashing cell keeps its slot among the decided ones. *)
let test_inline_preserves_order () =
  let cells =
    List.mapi (fun i c -> { c with Dist.cell_hint = float_of_int i }) (toy_cells 4)
  in
  with_tmp "inline-order" (fun path ->
      let rows, _ =
        run_ok ~workers:1 ~policy:fast_policy ~resume:false ~journal:path
          ~solver:"test-crash-always" cells
      in
      Alcotest.(check (list (triple string bool string)))
        "degraded cell, others decided, input order"
        [
          ("cell-00", false, "");
          ("cell-01", true, "v:cell-01");
          ("cell-02", true, "v:cell-02");
          ("cell-03", true, "v:cell-03");
        ]
        (rows_sig rows))

(* ------------------------------------------------------------------ *)
(* Payload framing                                                     *)
(* ------------------------------------------------------------------ *)

let test_payload_framing () =
  let cells = toy_cells 4 in
  let serial =
    with_tmp "framing-serial" (fun path ->
        let rows, _ = run_ok ~workers:1 ~resume:false ~journal:path ~solver:"test-framing" cells in
        rows_sig rows)
  in
  with_tmp "framing" (fun path ->
      let rows, stats =
        run_ok ~workers:2 ~batch:2 ~resume:false ~journal:path ~solver:"test-framing" cells
      in
      Alcotest.(check int) "two workers used" 2 stats.Dist.d_workers;
      Alcotest.(check matrix) "framed rows equal the in-process rows" serial (rows_sig rows);
      Alcotest.(check int) "one journaled result per cell" 4 stats.Dist.d_merged;
      (match Persist.Journal.load path with
      | Error msg -> Alcotest.failf "journal: %s" msg
      | Ok (entries, _) ->
          Alcotest.(check (list (triple string bool string)))
            "exactly one record per cell" serial
            (List.sort compare
               (List.map
                  (fun (e : Persist.Journal.entry) ->
                    (e.Persist.Journal.e_key, e.Persist.Journal.e_decided,
                     e.Persist.Journal.e_payload))
                  entries)));
      check_no_shards "framing" path)

(* A line that is not a frame cannot be skipped — the framing would not
   survive it — so the coordinator kills and restarts the worker like a
   crash; the cell is answered in the end, if need be in-process. *)
let test_malformed_frame_is_crash () =
  with_tmp "noisy" (fun path ->
      let rows, stats =
        run_ok ~workers:2 ~batch:2 ~policy:fast_policy ~resume:false ~journal:path
          ~solver:"test-noisy" (toy_cells 6)
      in
      if stats.Dist.d_restarts < 1 then
        Alcotest.failf "expected a worker restart, saw %d" stats.Dist.d_restarts;
      Alcotest.(check matrix) "every cell answered, no noise in a payload"
        (List.map (fun c -> (c.Dist.cell_key, true, "v:" ^ c.Dist.cell_key)) (toy_cells 6))
        (rows_sig rows);
      check_no_shards "noisy" path)

(* ------------------------------------------------------------------ *)
(* Kill-a-worker-at-every-batch resume equivalence                     *)
(* ------------------------------------------------------------------ *)

(* Serial reference, then: SIGKILL worker (k mod 2) after k acks (Abort
   mode kills the whole campaign; the journal keeps every answered cell),
   resume with the full worker fleet, and demand the serial matrix
   bit-for-bit. On every third kill point the journal's last record is
   also torn, standing in for a coordinator SIGKILLed mid-append.
   [proj] projects a row to its comparable signature — raw payload bytes
   for toy solves, decoded verdicts for real checks (whose payloads embed
   timings). *)
let kill_sweep ?(proj = row_sig) ?arg ~cells ~solver ~acks () =
  let reference =
    let path = tmp_path "sweep-ref" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let rows, _ = run_ok ?arg ~workers:1 ~resume:false ~journal:path ~solver cells in
        List.map proj rows)
  in
  for k = 1 to acks do
    with_tmp (Printf.sprintf "sweep-%d" k) (fun path ->
        let kill = { Dist.k_worker = k mod 2; k_after = k; k_mode = `Abort } in
        match
          Dist.run ~workers:2 ~batch:2 ~policy:fast_policy ~kill ?arg ~resume:false
            ~force:false ~journal:path ~solver cells
        with
        | Ok (rows, _) ->
            (* The doomed worker never reached k acks; the run completed. *)
            Alcotest.(check matrix)
              (Printf.sprintf "kill@%d never fired: matrix intact" k)
              reference (List.map proj rows)
        | Error _ ->
            let n =
              match Persist.Journal.load path with
              | Ok (entries, _) -> List.length entries
              | Error msg -> Alcotest.failf "kill@%d: journal: %s" k msg
            in
            if n < k then Alcotest.failf "kill@%d: journal holds only %d records" k n;
            check_no_shards (Printf.sprintf "kill@%d" k) path;
            if k mod 3 = 0 then Persist.Journal.chop ~torn_bytes:9 ~keep:(n - 1) path;
            let rows, stats =
              run_ok ?arg ~workers:2 ~resume:true ~journal:path ~solver cells
            in
            Alcotest.(check matrix)
              (Printf.sprintf "kill@%d + resume equals serial" k)
              reference (List.map proj rows);
            if stats.Dist.d_skipped + stats.Dist.d_dispatched < List.length cells then
              Alcotest.failf "kill@%d: %d skipped + %d dispatched < %d cells" k
                stats.Dist.d_skipped stats.Dist.d_dispatched (List.length cells);
            check_no_shards (Printf.sprintf "kill@%d resume" k) path)
  done

let test_kill_sweep_fast () =
  kill_sweep ~cells:(toy_cells 10) ~solver:"test-toy-matrix" ~acks:8 ()

(* Real check payloads embed solver statistics (timings), so two runs of
   the same cell are not byte-identical; the matrix identity is over the
   decoded verdicts. *)
let verdict_sig (r : Dist.row) =
  let verdict =
    match Qed.Checks.decode_report r.Dist.r_payload with
    | Some rep -> Format.asprintf "%a" Qed.Checks.pp_verdict rep.Qed.Checks.verdict
    | None -> if r.Dist.r_payload = "" then "<no payload>" else "<undecodable>"
  in
  (r.Dist.r_key, r.Dist.r_decided, verdict)

let test_real_matrix_dist_equals_serial () =
  let arg = "hamming74:3" in
  let cells, _ = real_build arg in
  let serial =
    with_tmp "real-serial" (fun path ->
        let rows, _ =
          run_ok ~arg ~workers:1 ~resume:false ~journal:path ~solver:"test-real" cells
        in
        List.map verdict_sig rows)
  in
  with_tmp "real-dist" (fun path ->
      let rows, stats =
        run_ok ~arg ~workers:2 ~resume:false ~journal:path ~solver:"test-real" cells
      in
      Alcotest.(check matrix) "2-worker matrix equals serial" serial
        (List.map verdict_sig rows);
      Alcotest.(check int) "two workers used" 2 stats.Dist.d_workers;
      Alcotest.(check int) "every cell dispatched" (List.length cells)
        stats.Dist.d_dispatched)

let test_real_kill_sweep_full_matrix () =
  match Sys.getenv_opt "GQED_FULL_MATRIX" with
  | Some ("1" | "true") ->
      let arg = "hamming74" in
      let cells, _ = real_build arg in
      kill_sweep ~proj:verdict_sig ~arg ~cells ~solver:"test-real"
        ~acks:(List.length cells) ()
  | _ -> ()

let suite =
  [
    Alcotest.test_case "payload framing" `Quick test_payload_framing;
    Alcotest.test_case "malformed frame is a crash" `Quick test_malformed_frame_is_crash;
    Alcotest.test_case "hardest-first queue order" `Quick test_hardest_first_order;
    Alcotest.test_case "warm rows on repeat run" `Quick test_warm_rows_on_repeat;
    Alcotest.test_case "unregistered solver rejected" `Quick
      test_unregistered_solver_rejected;
    Alcotest.test_case "worker crash is restarted" `Quick test_worker_crash_restarted;
    Alcotest.test_case "OOM worker is restarted like a crash" `Quick
      test_oom_restarted_like_crash;
    Alcotest.test_case "idle worker death is not restarted" `Quick
      test_idle_worker_death_not_restarted;
    Alcotest.test_case "in-process: restarts and give-up" `Quick
      test_inline_restarts_and_give_up;
    Alcotest.test_case "in-process: preserves order" `Quick
      test_inline_preserves_order;
    Alcotest.test_case "kill-worker-at-every-batch sweep (fast)" `Slow
      test_kill_sweep_fast;
    Alcotest.test_case "real matrix: dist equals serial" `Slow
      test_real_matrix_dist_equals_serial;
    Alcotest.test_case "real kill sweep (full matrix)" `Slow
      test_real_kill_sweep_full_matrix;
  ]

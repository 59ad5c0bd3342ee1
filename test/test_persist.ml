(* Tests for the crash-safe campaign persistence layer (Persist): journal
   round-trips, every recovery path a SIGKILL or bit-rot can force (torn
   tail, bad CRC, duplicates, empty and headerless files), injected I/O
   faults, and the end-to-end resume-equivalence sweep over a real
   mutant matrix — kill the campaign after every record in turn and the
   resumed verdicts must be bit-for-bit those of an uninterrupted run, as
   must a run journaled under injected I/O faults and its resume. *)

let tmp_path tag =
  let file = Filename.temp_file ("gqed-test-" ^ tag) ".jrnl" in
  Sys.remove file;
  file

let with_tmp tag f =
  let path = tmp_path tag in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let entry_triple (e : Persist.Journal.entry) =
  (e.Persist.Journal.e_key, e.Persist.Journal.e_decided, e.Persist.Journal.e_payload)

let load_ok path =
  match Persist.Journal.load path with
  | Ok (entries, recovery) -> (entries, recovery)
  | Error msg -> Alcotest.failf "load %s: %s" path msg

let open_ok ?sync ?fault path =
  match Persist.Journal.open_append ?sync ?fault path with
  | Ok v -> v
  | Error msg -> Alcotest.failf "open_append %s: %s" path msg

(* Append [specs] to a fresh journal at [path]. *)
let write_journal path specs =
  let j, existing, _ = open_ok path in
  Alcotest.(check int) "fresh journal is empty" 0 (List.length existing);
  List.iter
    (fun (key, decided, payload) -> Persist.Journal.append j ~decided ~key ~payload)
    specs;
  Alcotest.(check int) "appended count" (List.length specs) (Persist.Journal.appended j);
  Persist.Journal.close j

(* ------------------------------------------------------------------ *)
(* CRC and record format                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_vector () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l (Persist.crc32 "123456789");
  Alcotest.(check int32) "crc32(empty)" 0l (Persist.crc32 "");
  (* Sensitivity: one flipped bit changes the checksum. *)
  if Persist.crc32 "123456788" = Persist.crc32 "123456789" then
    Alcotest.fail "crc32 collision on single-character change"

let test_round_trip () =
  with_tmp "roundtrip" (fun path ->
      let specs =
        [
          ("gqed/4/aa/bb", true, "payload-one");
          ("gqed/4/cc/dd", false, "unknown-payload");
          ("aqed/2/ee/ff", true, String.make 1000 'x');
          ("gqed/4/aa/bb", true, "");
        ]
      in
      write_journal path specs;
      let entries, recovery = load_ok path in
      Alcotest.(check (list (triple string bool string)))
        "entries replay in append order, duplicates included" specs
        (List.map entry_triple entries);
      Alcotest.(check bool) "no truncation" false recovery.Persist.Journal.rec_truncated;
      Alcotest.(check int) "no dropped bytes" 0 recovery.Persist.Journal.rec_dropped_bytes)

let test_empty_file_is_valid () =
  with_tmp "empty" (fun path ->
      let oc = open_out path in
      close_out oc;
      let entries, recovery = load_ok path in
      Alcotest.(check int) "no entries" 0 (List.length entries);
      Alcotest.(check bool) "not truncated" false recovery.Persist.Journal.rec_truncated;
      (* And open_append writes the header into it. *)
      let j, _, _ = open_ok path in
      Persist.Journal.append j ~decided:true ~key:"k" ~payload:"v";
      Persist.Journal.close j;
      let entries, _ = load_ok path in
      Alcotest.(check int) "one entry after append" 1 (List.length entries))

let test_bad_header_rejected () =
  with_tmp "badmagic" (fun path ->
      let oc = open_out path in
      output_string oc "NOTAJRNL\x01";
      close_out oc;
      (match Persist.Journal.load path with
      | Ok _ -> Alcotest.fail "load accepted a journal with a wrong magic"
      | Error _ -> ());
      match Persist.Journal.open_append path with
      | Ok _ -> Alcotest.fail "open_append accepted a wrong magic"
      | Error _ -> ())

let test_missing_file_load_errors () =
  let path = tmp_path "missing" in
  match Persist.Journal.load path with
  | Ok _ -> Alcotest.fail "load of a missing path succeeded"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Recovery: torn tails, corrupt CRCs, duplicates                      *)
(* ------------------------------------------------------------------ *)

let three_specs =
  [ ("key-a", true, "pay-a"); ("key-b", true, "pay-b"); ("key-c", false, "pay-c") ]

let test_truncated_tail_recovered () =
  with_tmp "torn" (fun path ->
      write_journal path three_specs;
      (* Keep 2 whole records plus 7 bytes of a half-written third. *)
      Persist.Journal.chop ~torn_bytes:7 ~keep:2 path;
      let entries, recovery = load_ok path in
      Alcotest.(check (list (triple string bool string)))
        "valid prefix replays"
        [ List.nth three_specs 0; List.nth three_specs 1 ]
        (List.map entry_triple entries);
      Alcotest.(check bool) "truncated" true recovery.Persist.Journal.rec_truncated;
      Alcotest.(check int) "dropped the torn bytes" 7
        recovery.Persist.Journal.rec_dropped_bytes;
      (* open_append repairs the file on disk and appending resumes. *)
      let j, replayed, recovery' = open_ok path in
      Alcotest.(check int) "open_append replays the prefix" 2 (List.length replayed);
      Alcotest.(check bool) "open_append saw the damage" true
        recovery'.Persist.Journal.rec_truncated;
      Persist.Journal.append j ~decided:true ~key:"key-d" ~payload:"pay-d";
      Persist.Journal.close j;
      let entries, recovery'' = load_ok path in
      Alcotest.(check (list (triple string bool string)))
        "repaired journal: prefix + new record, no dead bytes"
        [ List.nth three_specs 0; List.nth three_specs 1; ("key-d", true, "pay-d") ]
        (List.map entry_triple entries);
      Alcotest.(check bool) "clean after repair" false
        recovery''.Persist.Journal.rec_truncated)

let test_bad_crc_mid_file_stops_replay () =
  with_tmp "badcrc" (fun path ->
      write_journal path three_specs;
      (* Flip one payload byte inside the second record: its CRC no longer
         matches, so replay must stop after record 1 — a mid-file flip is
         indistinguishable from damage extending to the tail. *)
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len in
      close_in ic;
      let target = "pay-b" in
      let pos =
        let rec find i =
          if i + String.length target > len then
            Alcotest.fail "second payload not found in journal bytes"
          else if String.sub bytes i (String.length target) = target then i
          else find (i + 1)
        in
        find 0
      in
      let corrupted = Bytes.of_string bytes in
      Bytes.set corrupted pos (Char.chr (Char.code (Bytes.get corrupted pos) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc corrupted;
      close_out oc;
      let entries, recovery = load_ok path in
      Alcotest.(check (list (triple string bool string)))
        "replay stops before the corrupt record"
        [ List.nth three_specs 0 ]
        (List.map entry_triple entries);
      Alcotest.(check bool) "truncated" true recovery.Persist.Journal.rec_truncated;
      if recovery.Persist.Journal.rec_dropped_bytes <= 0 then
        Alcotest.fail "expected dropped bytes for the corrupt suffix")

let test_duplicates_last_write_wins () =
  with_tmp "dups" (fun path ->
      write_journal path
        [
          ("k", true, "first");
          ("k", true, "second");
          ("other", true, "x");
          ("k", true, "third");
        ];
      match Persist.Campaign.start ~resume:true ~force:false path with
      | Error msg -> Alcotest.failf "resume: %s" msg
      | Ok c ->
          Alcotest.(check (option string))
            "last decided record wins" (Some "third")
            (Persist.Campaign.find_decided c "k");
          Persist.Campaign.close c)

let test_undecided_then_decided_duplicate () =
  with_tmp "dup-undecided" (fun path ->
      (* decided -> undecided for the same key: the last record is
         undecided, so the key must not be skippable (an Unknown outcome
         recorded later supersedes the stale decided one). *)
      write_journal path [ ("k", true, "old-decided"); ("k", false, "newer-unknown") ];
      match Persist.Campaign.start ~resume:true ~force:false path with
      | Error msg -> Alcotest.failf "resume: %s" msg
      | Ok c ->
          Alcotest.(check (option string))
            "undecided last record makes the key non-skippable" None
            (Persist.Campaign.find_decided c "k");
          let s = Persist.Campaign.stats c in
          Alcotest.(check int) "both records replayed" 2 s.Persist.Campaign.c_loaded;
          Alcotest.(check int) "one undecided" 1 s.Persist.Campaign.c_undecided_loaded;
          Persist.Campaign.close c)

(* ------------------------------------------------------------------ *)
(* Injected I/O faults                                                 *)
(* ------------------------------------------------------------------ *)

let test_fault_appends_leave_loadable_prefix () =
  (* Each fault class fires on the second append; the first record must
     stay replayable and the journal must stay loadable afterwards. *)
  let check_fault name fault expect_raise =
    with_tmp ("fault-" ^ name) (fun path ->
        let hook i = if i = 1 then Some fault else None in
        let j, _, _ = open_ok ~fault:hook path in
        Persist.Journal.append j ~decided:true ~key:"ok-0" ~payload:"p0";
        (let raised =
           try
             Persist.Journal.append j ~decided:true ~key:"hurt-1" ~payload:"p1";
             false
           with Persist.Injected_fault _ -> true
         in
         Alcotest.(check bool) (name ^ ": raises Injected_fault") expect_raise raised);
        Persist.Journal.append j ~decided:true ~key:"ok-2" ~payload:"p2";
        Persist.Journal.close j;
        let entries, _recovery = load_ok path in
        let keys = List.map (fun (k, _, _) -> k) (List.map entry_triple entries) in
        (* The faulted record never replays; its neighbours always do. *)
        if List.mem "hurt-1" keys then
          Alcotest.failf "%s: faulted append replayed anyway" name;
        Alcotest.(check bool) (name ^ ": first record survives") true
          (List.mem "ok-0" keys);
        Alcotest.(check bool) (name ^ ": append after fault works") true
          (List.mem "ok-2" keys))
  in
  check_fault "short-write" (Persist.Short_write 5) true;
  check_fault "enospc" Persist.Enospc true;
  (* Torn = killed mid-append: nobody observes an error, and the torn
     bytes are truncated away by the next append (same handle) or load. *)
  check_fault "torn" (Persist.Torn 9) false

let test_campaign_swallows_write_faults () =
  with_tmp "campaign-fault" (fun path ->
      let hook i = if i = 0 then Some Persist.Enospc else None in
      match Persist.Campaign.start ~fault:hook ~resume:false ~force:false path with
      | Error msg -> Alcotest.failf "start: %s" msg
      | Ok c ->
          (* The lost append must not raise out of the verdict path. *)
          Persist.Campaign.record c ~decided:true ~key:"lost" ~payload:"x";
          Persist.Campaign.record c ~decided:true ~key:"kept" ~payload:"y";
          let s = Persist.Campaign.stats c in
          Alcotest.(check int) "one write error" 1 s.Persist.Campaign.c_write_errors;
          Alcotest.(check int) "one append landed" 1 s.Persist.Campaign.c_appended;
          Persist.Campaign.close c;
          let entries, _ = load_ok path in
          Alcotest.(check (list string)) "only the non-faulted key persisted" [ "kept" ]
            (List.map (fun e -> e.Persist.Journal.e_key) entries))

(* ------------------------------------------------------------------ *)
(* Campaign guard semantics                                            *)
(* ------------------------------------------------------------------ *)

let test_campaign_guards () =
  with_tmp "guards" (fun path ->
      (* resume without a journal: clear error, not a silent cold start. *)
      (match Persist.Campaign.start ~resume:true ~force:false path with
      | Ok _ -> Alcotest.fail "--resume without a journal silently cold-started"
      | Error msg ->
          Alcotest.(check bool) "error names the path" true
            (contains ~sub:(Filename.basename path) msg));
      (* fresh start, then a second fresh start must refuse... *)
      (match Persist.Campaign.start ~resume:false ~force:false path with
      | Error msg -> Alcotest.failf "fresh start: %s" msg
      | Ok c ->
          Persist.Campaign.record c ~decided:true ~key:"k" ~payload:"v";
          Persist.Campaign.close c);
      (match Persist.Campaign.start ~resume:false ~force:false path with
      | Ok _ -> Alcotest.fail "fresh start over an existing journal succeeded"
      | Error _ -> ());
      (* ...unless forced, which starts over. *)
      match Persist.Campaign.start ~resume:false ~force:true path with
      | Error msg -> Alcotest.failf "forced start: %s" msg
      | Ok c ->
          Alcotest.(check (option string))
            "forced start discarded the old journal" None
            (Persist.Campaign.find_decided c "k");
          Persist.Campaign.close c)

(* ------------------------------------------------------------------ *)
(* End-to-end: kill-at-every-record resume equivalence over a real
   mutant matrix, and the Unknown-never-skipped regression              *)
(* ------------------------------------------------------------------ *)

let verdict_to_string (r : Qed.Checks.report) =
  match r.Qed.Checks.verdict with
  | Qed.Checks.Pass n -> Printf.sprintf "proved@%d" n
  | Qed.Checks.Fail f ->
      Printf.sprintf "detected@%d:%s" f.Qed.Checks.witness.Bmc.w_length
        (Qed.Checks.failure_kind_to_string f.Qed.Checks.kind)
  | Qed.Checks.Unknown u ->
      Printf.sprintf "unknown@%d:%s" u.Qed.Checks.u_bound
        (Sat.Solver.reason_to_string u.Qed.Checks.u_reason)

let registry_entry name =
  match
    List.find_opt (fun e -> e.Designs.Entry.name = name) Designs.Registry.all
  with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %s" name

(* The campaign funnel the bench and CLI use: skip journaled decided
   reports, run and record everything else. *)
let campaign_cell c (design, iface, bound) =
  let key = Qed.Checks.campaign_key Qed.Checks.Gqed design iface ~bound in
  match Option.bind (Persist.Campaign.find_decided c key) Qed.Checks.decode_report with
  | Some r -> verdict_to_string r
  | None ->
      let r = Qed.Checks.run Qed.Checks.Gqed design iface ~bound in
      Persist.Campaign.record c ~decided:(Qed.Checks.report_decided r) ~key
        ~payload:(Qed.Checks.encode_report r);
      verdict_to_string r

let matrix_cells name ~mutants =
  let e = registry_entry name in
  let bound = e.Designs.Entry.rec_bound in
  let muts = List.map snd (Mutation.mutants e.Designs.Entry.design) in
  let muts =
    if mutants >= List.length muts then muts
    else List.filteri (fun i _ -> i < mutants) muts
  in
  List.map
    (fun d -> (d, e.Designs.Entry.iface, bound))
    (e.Designs.Entry.design :: muts)

let run_campaign ?fault path ~resume cells =
  match Persist.Campaign.start ?fault ~resume ~force:(not resume) path with
  | Error msg -> Alcotest.failf "campaign %s: %s" path msg
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Persist.Campaign.close c)
        (fun () ->
          let matrix = List.map (campaign_cell c) cells in
          (matrix, Persist.Campaign.stats c))

let test_kill_at_every_record ~mutants () =
  let cells = matrix_cells "hamming74" ~mutants in
  let n = List.length cells in
  (* Uninterrupted reference run (journaled to its own file). *)
  with_tmp "sweep-ref" (fun ref_path ->
      let reference, ref_stats = run_campaign ref_path ~resume:false cells in
      Alcotest.(check int) "reference journaled every cell" n
        ref_stats.Persist.Campaign.c_appended;
      (* Kill after every record in turn: chop the journal to k records
         (alternating a torn half-record on top), resume, and demand the
         bit-for-bit reference matrix. *)
      for k = 0 to n - 1 do
        with_tmp (Printf.sprintf "sweep-%d" k) (fun path ->
            let _, _ = run_campaign path ~resume:false cells in
            let torn_bytes = if k mod 2 = 1 then 9 else 0 in
            Persist.Journal.chop ~torn_bytes ~keep:k path;
            let resumed, stats = run_campaign path ~resume:true cells in
            List.iteri
              (fun i (r, g) ->
                Alcotest.(check string)
                  (Printf.sprintf "kill@%d cell %d verdict" k i)
                  r g)
              (List.combine reference resumed);
            (* Exactly the surviving prefix is skipped (every hamming74
               verdict at its registry bound is decided, so each replayed
               record is skippable). *)
            Alcotest.(check int)
              (Printf.sprintf "kill@%d skips" k)
              k stats.Persist.Campaign.c_hits;
            Alcotest.(check int)
              (Printf.sprintf "kill@%d re-runs" k)
              (n - k) stats.Persist.Campaign.c_appended;
            if torn_bytes > 0 && stats.Persist.Campaign.c_recovered_bytes <= 0 then
              Alcotest.failf "kill@%d: torn tail not counted as recovered" k)
      done)

let test_kill_sweep_fast () = test_kill_at_every_record ~mutants:4 ()

let test_kill_sweep_full_matrix () =
  match Sys.getenv_opt "GQED_FULL_MATRIX" with
  | Some ("1" | "true") -> test_kill_at_every_record ~mutants:max_int ()
  | _ -> ()

(* Journal I/O faults cost durability, never verdicts: every third append
   is torn, every seventh fails short and every eleventh hits ENOSPC. The
   faulted run and a resume from its damaged journal must both reproduce
   the uninterrupted matrix. The whole hamming74 matrix (21 cells, proved
   and detected) is long enough for every fault kind to fire. *)
let test_io_faults_never_flip () =
  let cells = matrix_cells "hamming74" ~mutants:max_int in
  let fault i =
    if i mod 11 = 7 then Some Persist.Enospc
    else if i mod 7 = 3 then Some (Persist.Short_write 5)
    else if i mod 3 = 1 then Some (Persist.Torn 11)
    else None
  in
  with_tmp "fault-ref" (fun ref_path ->
      let reference, _ = run_campaign ref_path ~resume:false cells in
      with_tmp "fault" (fun path ->
          let faulted, stats = run_campaign ~fault path ~resume:false cells in
          Alcotest.(check (list string)) "faulted matrix" reference faulted;
          if stats.Persist.Campaign.c_write_errors <= 0 then
            Alcotest.fail "no injected fault was counted as a write error";
          let resumed, _ = run_campaign path ~resume:true cells in
          Alcotest.(check (list string)) "resumed from the damaged journal" reference
            resumed))

let test_resume_never_skips_unknown () =
  (* Regression: a journaled Unknown (here forced by a one-conflict budget)
     must be re-attempted on resume, not served as a decided verdict — a
     bigger budget might decide it. *)
  let e = registry_entry "hamming74" in
  let design = e.Designs.Entry.design
  and iface = e.Designs.Entry.iface
  and bound = e.Designs.Entry.rec_bound in
  let key = Qed.Checks.campaign_key Qed.Checks.Gqed design iface ~bound in
  let starved = Sat.Solver.budget ~conflicts:1 () in
  let starved_report = Qed.Checks.run ~budget:starved Qed.Checks.Gqed design iface ~bound in
  (match starved_report.Qed.Checks.verdict with
  | Qed.Checks.Unknown _ -> ()
  | _ -> Alcotest.fail "one-conflict budget unexpectedly decided (test premise)");
  Alcotest.(check bool) "Unknown is not decided" false
    (Qed.Checks.report_decided starved_report);
  with_tmp "unknown" (fun path ->
      (* Session 1: journal the Unknown, then "crash". *)
      (match Persist.Campaign.start ~resume:false ~force:false path with
      | Error msg -> Alcotest.failf "start: %s" msg
      | Ok c ->
          Persist.Campaign.record c
            ~decided:(Qed.Checks.report_decided starved_report)
            ~key
            ~payload:(Qed.Checks.encode_report starved_report);
          Persist.Campaign.close c);
      (* Session 2: resume. The Unknown must not satisfy find_decided; the
         re-run (unbudgeted) decides and its record supersedes. *)
      match Persist.Campaign.start ~resume:true ~force:false path with
      | Error msg -> Alcotest.failf "resume: %s" msg
      | Ok c ->
          let s = Persist.Campaign.stats c in
          Alcotest.(check int) "replayed the Unknown" 1
            s.Persist.Campaign.c_undecided_loaded;
          Alcotest.(check (option string)) "Unknown is never skippable" None
            (Persist.Campaign.find_decided c key);
          let fresh = campaign_cell c (design, iface, bound) in
          let clean =
            verdict_to_string (Qed.Checks.run Qed.Checks.Gqed design iface ~bound)
          in
          Alcotest.(check string) "re-attempt decides the clean verdict" clean fresh;
          Persist.Campaign.close c;
          (* Session 3: now the decided record is skippable. *)
          (match Persist.Campaign.start ~resume:true ~force:false path with
          | Error msg -> Alcotest.failf "second resume: %s" msg
          | Ok c2 ->
              (match
                 Option.bind
                   (Persist.Campaign.find_decided c2 key)
                   Qed.Checks.decode_report
               with
              | Some r ->
                  Alcotest.(check string) "decided record now served from journal"
                    clean (verdict_to_string r)
              | None -> Alcotest.fail "decided re-run did not supersede the Unknown");
              Persist.Campaign.close c2))

(* Journals written by earlier releases key their cells with this exact
   string; if the key construction drifts, [--resume] silently re-runs
   every cell instead of skipping the decided ones. *)
let test_campaign_key_frozen () =
  let e = registry_entry "hamming74" in
  Alcotest.(check string) "hamming74 G-QED key"
    "G-QED/4/dead8b1302b7fcdbb9e090e10cd86504/e6c69f46d1b28fc9762b1b6aecbcc51d"
    (Qed.Checks.campaign_key Qed.Checks.Gqed e.Designs.Entry.design e.Designs.Entry.iface
       ~bound:e.Designs.Entry.rec_bound)

let test_decode_rejects_drift () =
  let e = registry_entry "hamming74" in
  let r =
    Qed.Checks.run Qed.Checks.Gqed e.Designs.Entry.design e.Designs.Entry.iface
      ~bound:e.Designs.Entry.rec_bound
  in
  let blob = Qed.Checks.encode_report r in
  (match Qed.Checks.decode_report blob with
  | Some r' ->
      Alcotest.(check string) "round-trips" (verdict_to_string r) (verdict_to_string r')
  | None -> Alcotest.fail "encode/decode round-trip failed");
  (match Qed.Checks.decode_report ("gqed-report/0:" ^ blob) with
  | Some _ -> Alcotest.fail "stale schema tag decoded; payload drift must re-run"
  | None -> ());
  (* Version 1 reports carried two more solver stats fields, version 2
     escalation attempts one more field, version 3 the escalation attempt
     log, version 4 six unknown reasons and two pipeline timers, and
     version 5 four COI and compaction figures in the pipeline stats; a
     journal written under any of them must re-run its cells rather than
     decode them. *)
  let tag = "gqed-report/6:" in
  let tag_len = String.length tag in
  Alcotest.(check string) "current schema tag" tag (String.sub blob 0 tag_len);
  List.iter
    (fun old ->
      let old_blob = old ^ String.sub blob tag_len (String.length blob - tag_len) in
      match Qed.Checks.decode_report old_blob with
      | Some _ -> Alcotest.failf "%s blob decoded; it must re-run" old
      | None -> ())
    [
      "gqed-report/1:";
      "gqed-report/2:";
      "gqed-report/3:";
      "gqed-report/4:";
      "gqed-report/5:";
    ];
  match Qed.Checks.decode_report "gqed-report/6:not-a-marshal-blob" with
  | Some _ -> Alcotest.fail "garbage payload decoded"
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The v2 record format                                                *)
(* ------------------------------------------------------------------ *)

(* A v1 record, byte-for-byte: no seconds field. The format is gone, so
   a v1 journal must be refused, not replayed or rewritten. *)
let encode_v1_record ~decided ~key ~payload =
  let buf = Buffer.create 64 in
  let add32 n =
    List.iter (fun s -> Buffer.add_char buf (Char.chr ((n lsr s) land 0xff))) [ 24; 16; 8; 0 ]
  in
  Buffer.add_char buf 'R';
  add32 (String.length key);
  add32 (String.length payload);
  Buffer.add_char buf (if decided then '\001' else '\000');
  Buffer.add_string buf key;
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  add32 (Int32.to_int (Persist.crc32 body) land 0xFFFFFFFF);
  Buffer.contents buf

let test_v1_journal_refused () =
  with_tmp "v1" (fun path ->
      let bytes =
        "GQEDJRNL\001"
        ^ encode_v1_record ~decided:true ~key:"old-key" ~payload:"old-pay"
        ^ encode_v1_record ~decided:false ~key:"old-unk" ~payload:"u"
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      let expect_error what = function
        | Ok _ -> Alcotest.failf "%s accepted a v1 journal" what
        | Error msg ->
            if not (contains ~sub:"unsupported journal version 1" msg) then
              Alcotest.failf "%s: unexpected error %S" what msg
      in
      expect_error "Journal.load" (Persist.Journal.load path);
      expect_error "Campaign.start ~resume:true"
        (Persist.Campaign.start ~resume:true ~force:false path);
      Alcotest.(check string) "v1 file left byte-identical" bytes
        (In_channel.with_open_bin path In_channel.input_all))

let test_seconds_round_trip () =
  with_tmp "seconds" (fun path ->
      (match Persist.Campaign.start ~resume:false ~force:false path with
      | Error msg -> Alcotest.failf "start: %s" msg
      | Ok c ->
          Persist.Campaign.record ~seconds:0.75 c ~decided:true ~key:"k" ~payload:"p";
          Persist.Campaign.record c ~decided:true ~key:"k0" ~payload:"p0";
          Alcotest.(check (option (float 1e-9))) "seconds visible immediately"
            (Some 0.75) (Persist.Campaign.last_seconds c "k");
          Persist.Campaign.close c);
      match Persist.Campaign.start ~resume:true ~force:false path with
      | Error msg -> Alcotest.failf "resume: %s" msg
      | Ok c ->
          Alcotest.(check (option (float 1e-9))) "seconds survive resume" (Some 0.75)
            (Persist.Campaign.last_seconds c "k");
          Alcotest.(check (option (float 1e-9))) "no timing journaled" None
            (Persist.Campaign.last_seconds c "k0");
          Alcotest.(check (option string)) "verdict intact" (Some "p")
            (Persist.Campaign.find_decided c "k");
          Persist.Campaign.close c)

let suite =
  [
    Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
    Alcotest.test_case "journal round-trip" `Quick test_round_trip;
    Alcotest.test_case "empty file is a valid journal" `Quick test_empty_file_is_valid;
    Alcotest.test_case "bad header rejected" `Quick test_bad_header_rejected;
    Alcotest.test_case "missing file load errors" `Quick test_missing_file_load_errors;
    Alcotest.test_case "truncated tail recovered" `Quick test_truncated_tail_recovered;
    Alcotest.test_case "bad CRC mid-file stops replay" `Quick
      test_bad_crc_mid_file_stops_replay;
    Alcotest.test_case "duplicates: last write wins" `Quick
      test_duplicates_last_write_wins;
    Alcotest.test_case "undecided duplicate blocks skipping" `Quick
      test_undecided_then_decided_duplicate;
    Alcotest.test_case "fault appends leave loadable prefix" `Quick
      test_fault_appends_leave_loadable_prefix;
    Alcotest.test_case "campaign swallows write faults" `Quick
      test_campaign_swallows_write_faults;
    Alcotest.test_case "campaign guard semantics" `Quick test_campaign_guards;
    Alcotest.test_case "kill-at-every-record sweep (fast)" `Slow test_kill_sweep_fast;
    Alcotest.test_case "kill-at-every-record sweep (full matrix)" `Slow
      test_kill_sweep_full_matrix;
    Alcotest.test_case "I/O faults never flip a verdict" `Slow test_io_faults_never_flip;
    Alcotest.test_case "resume never skips Unknown" `Slow
      test_resume_never_skips_unknown;
    Alcotest.test_case "report encode/decode drift" `Quick test_decode_rejects_drift;
    Alcotest.test_case "campaign key is frozen" `Quick test_campaign_key_frozen;
    Alcotest.test_case "v1 journal is refused" `Quick test_v1_journal_refused;
    Alcotest.test_case "per-cell seconds round-trip" `Quick test_seconds_round_trip;
  ]

(* Tests for the observability layer: span nesting and balance invariants,
   metrics snapshot/diff algebra, exporter round-trips, and the overwrite
   guard every --trace and --metrics file goes through. *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Json = Obs.Json

(* Every test that emits runs inside [traced]: fresh buffers, tracing on,
   and the global state restored whatever the body does. *)
let traced f =
  let was_on = Obs.on () in
  Trace.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.reset ();
      if not was_on then Obs.disable ())
    f

let check_ok evs =
  match Trace.check evs with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trace not well-formed: %s" msg

let check_err expect evs =
  match Trace.check evs with
  | Ok () -> Alcotest.failf "malformed trace accepted (wanted: %s)" expect
  | Error _ -> ()

(* ---- guard ---- *)

let test_disabled_emits_nothing () =
  Trace.reset ();
  Obs.disable ();
  Trace.span_begin "x";
  Trace.instant "y";
  Trace.counter "z" 1.0;
  Trace.span_end "x";
  Alcotest.(check int) "no events while off" 0 (List.length (Trace.events ()))

(* ---- span nesting and balance ---- *)

let test_nested_spans_balanced () =
  let evs =
    traced (fun () ->
        Trace.span_begin "outer" ~args:[ ("k", "v") ];
        Trace.span_begin "inner";
        Trace.instant "tick";
        Trace.span_end "inner";
        Trace.counter "rate" 42.0;
        Trace.span_end "outer";
        Trace.events ())
  in
  Alcotest.(check int) "six events" 6 (List.length evs);
  check_ok evs;
  (* Sequence numbers are the emission order, 0-based and gapless. *)
  List.iteri
    (fun i ev -> Alcotest.(check int) "gapless seq" i ev.Trace.ev_seq)
    evs

let test_with_span_closes_on_raise () =
  let evs =
    traced (fun () ->
        (try Trace.with_span "risky" (fun () -> failwith "boom")
         with Failure _ -> ());
        Trace.events ())
  in
  Alcotest.(check int) "begin and end" 2 (List.length evs);
  check_ok evs

let test_checker_rejects_unbalanced () =
  let evs =
    traced (fun () ->
        Trace.span_begin "open";
        Trace.events ())
  in
  check_err "unclosed span" evs;
  let evs =
    traced (fun () ->
        Trace.span_begin "a";
        Trace.span_end "b";
        Trace.events ())
  in
  check_err "mismatched end" evs;
  let evs =
    traced (fun () ->
        Trace.span_begin "a";
        Trace.span_begin "b";
        (* Ends crossed: closes the outer name while the inner is open. *)
        Trace.span_end "a";
        Trace.span_end "b";
        Trace.events ())
  in
  check_err "crossed spans" evs

let test_checker_rejects_seq_violations () =
  let ev seq ts kind name =
    {
      Trace.ev_seq = seq;
      ev_domain = 0;
      ev_ts = ts;
      ev_kind = kind;
      ev_name = name;
      ev_args = [];
    }
  in
  check_err "duplicate seq"
    [ ev 0 1.0 Trace.Instant "a"; ev 0 2.0 Trace.Instant "b" ];
  check_err "decreasing seq"
    [ ev 5 1.0 Trace.Instant "a"; ev 3 2.0 Trace.Instant "b" ];
  check_err "time going backwards in one track"
    [ ev 0 2.0 Trace.Instant "a"; ev 1 1.0 Trace.Instant "b" ];
  (* Per-track clocks are independent: an older timestamp on another
     track (a merged multi-process trace) is fine. *)
  check_ok
    [
      ev 0 2.0 Trace.Instant "a";
      { (ev 1 1.0 Trace.Instant "b") with Trace.ev_domain = 1 };
    ]

(* ---- exporters ---- *)

let sample_events () =
  traced (fun () ->
      Trace.span_begin "solve" ~args:[ ("design", "alu \"quoted\"") ];
      Trace.counter "conflicts" 17.5;
      Trace.instant "restart" ~args:[ ("reason", "luby") ];
      Trace.span_end "solve" ~args:[ ("verdict", "unsat") ];
      Trace.events ())

let chrome evs =
  let buf = Buffer.create 256 in
  Trace.to_chrome buf evs;
  Buffer.contents buf

let test_chrome_roundtrip () =
  let evs = sample_events () in
  match Trace.parse_chrome (chrome evs) with
  | Error msg -> Alcotest.failf "Chrome export did not parse: %s" msg
  | Ok evs' ->
      Alcotest.(check int) "same length" (List.length evs) (List.length evs');
      check_ok evs';
      List.iter2
        (fun a b ->
          Alcotest.(check int) "seq" a.Trace.ev_seq b.Trace.ev_seq;
          Alcotest.(check string) "name" a.Trace.ev_name b.Trace.ev_name;
          Alcotest.(check bool) "kind" true (a.Trace.ev_kind = b.Trace.ev_kind);
          Alcotest.(check bool) "args survive" true
            (a.Trace.ev_args = b.Trace.ev_args))
        evs evs'

let test_chrome_export_parses () =
  let evs = sample_events () in
  match Json.parse (chrome evs) with
  | Error msg -> Alcotest.failf "chrome export is not valid JSON: %s" msg
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.Arr entries) ->
          Alcotest.(check int) "one entry per event" (List.length evs)
            (List.length entries);
          (* Timestamps are microseconds relative to the first event, so
             the first entry starts at zero and none is negative. *)
          let ts e =
            match Json.member "ts" e with
            | Some (Json.Num f) -> f
            | _ -> Alcotest.fail "entry without numeric ts"
          in
          Alcotest.(check (float 1e-9)) "first ts is zero" 0.0
            (ts (List.hd entries));
          List.iter
            (fun e ->
              Alcotest.(check bool) "non-negative ts" true (ts e >= 0.0))
            entries
      | _ -> Alcotest.fail "no traceEvents array")

(* A file whose events break [Trace.check] must fail [validate_file]: the
   Chrome file carries each event's own [seq], so a repeated one is caught
   rather than renumbered by array position. *)
let test_validate_file () =
  let evs = sample_events () in
  let validate write =
    let path = Filename.temp_file "gqed_obs" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        write path;
        Trace.validate_file path)
  in
  (match validate (fun path -> Trace.write path evs) with
  | Ok n -> Alcotest.(check int) "all events seen" (List.length evs) n
  | Error msg -> Alcotest.failf "validate_file rejected: %s" msg);
  let write_text text path =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let repeated_seq =
    List.mapi (fun i e -> if i = 2 then { e with Trace.ev_seq = 1 } else e) evs
  in
  (match validate (write_text (chrome repeated_seq)) with
  | Ok _ -> Alcotest.fail "validate_file accepted a repeated seq"
  | Error _ -> ());
  let unbalanced = List.filter (fun e -> e.Trace.ev_kind <> Trace.End) evs in
  match validate (write_text (chrome unbalanced)) with
  | Ok _ -> Alcotest.fail "validate_file accepted an unclosed span"
  | Error _ -> ()

(* ---- metrics ---- *)

let test_metrics_snapshot_and_diff () =
  Metrics.reset ();
  let c = Metrics.counter "test.count" in
  let g = Metrics.gauge "test.level" in
  let h = Metrics.histogram "test.lat" in
  Metrics.add c 3;
  Metrics.incr c;
  Metrics.set g 1.5;
  Metrics.observe h 0.05;
  let before = Metrics.snapshot () in
  (match List.assoc_opt "test.count" before with
  | Some (Metrics.Counter 4) -> ()
  | _ -> Alcotest.fail "counter snapshot wrong");
  (match List.assoc_opt "test.level" before with
  | Some (Metrics.Gauge v) -> Alcotest.(check (float 1e-9)) "gauge" 1.5 v
  | _ -> Alcotest.fail "gauge snapshot wrong");
  Metrics.add c 10;
  Metrics.set g 9.0;
  Metrics.observe h 0.05;
  Metrics.observe h 2.0;
  let after = Metrics.snapshot () in
  let d = Metrics.diff ~before ~after in
  (match List.assoc_opt "test.count" d with
  | Some (Metrics.Counter 10) -> ()
  | _ -> Alcotest.fail "diff counter is the interval delta");
  (match List.assoc_opt "test.level" d with
  | Some (Metrics.Gauge v) -> Alcotest.(check (float 1e-9)) "diff gauge keeps after" 9.0 v
  | _ -> Alcotest.fail "diff gauge wrong");
  (match List.assoc_opt "test.lat" d with
  | Some (Metrics.Histogram { h_count; h_sum; h_buckets }) ->
      Alcotest.(check int) "interval observations" 2 h_count;
      Alcotest.(check (float 1e-9)) "interval sum" 2.05 h_sum;
      (* Buckets are cumulative and end at infinity. *)
      (match List.rev h_buckets with
      | (inf, total) :: _ ->
          Alcotest.(check bool) "last bound is inf" true (inf = infinity);
          Alcotest.(check int) "last bucket counts all" 2 total
      | [] -> Alcotest.fail "no buckets")
  | _ -> Alcotest.fail "diff histogram wrong");
  Metrics.reset ()

let test_metrics_snapshot_sorted_and_interned () =
  Metrics.reset ();
  Metrics.incr (Metrics.counter "b.second");
  Metrics.incr (Metrics.counter "a.first");
  (* Interning by name: a second handle for the same name shares state. *)
  Metrics.incr (Metrics.counter "a.first");
  let snap = Metrics.snapshot () in
  Alcotest.(check (list string)) "sorted by name" [ "a.first"; "b.second" ]
    (List.map fst snap);
  (match List.assoc_opt "a.first" snap with
  | Some (Metrics.Counter 2) -> ()
  | _ -> Alcotest.fail "interned handles do not share state");
  (match Metrics.to_json snap with
  | Json.Obj kvs ->
      Alcotest.(check (list string)) "json field order" [ "a.first"; "b.second" ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "to_json not an object");
  (* Re-interning under a different kind is a caller bug. *)
  (match Metrics.gauge "a.first" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted");
  Metrics.reset ()

(* ---- export guard: gqed verify / campaign and bench/main.exe refuse an
   existing --trace or --metrics file, with no option to overwrite it ---- *)

let test_export_guard_refuses_overwrite () =
  let path = Filename.temp_file "gqed_obs" ".json" in
  (match Obs.Export.guard path with
  | Ok () -> Alcotest.fail "guard allowed clobbering an existing file"
  | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the file" true (contains msg path);
      Alcotest.(check bool) "error offers no --force" false (contains msg "--force"));
  Sys.remove path;
  match Obs.Export.guard path with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "guard refused a fresh path: %s" msg

let suite =
  [
    ("obs.disabled_silent", `Quick, test_disabled_emits_nothing);
    ("obs.nested_balanced", `Quick, test_nested_spans_balanced);
    ("obs.with_span_raise", `Quick, test_with_span_closes_on_raise);
    ("obs.reject_unbalanced", `Quick, test_checker_rejects_unbalanced);
    ("obs.reject_seq", `Quick, test_checker_rejects_seq_violations);
    ("obs.chrome_roundtrip", `Quick, test_chrome_roundtrip);
    ("obs.chrome_parses", `Quick, test_chrome_export_parses);
    ("obs.validate_file", `Quick, test_validate_file);
    ("obs.metrics_diff", `Quick, test_metrics_snapshot_and_diff);
    ("obs.metrics_interning", `Quick, test_metrics_snapshot_sorted_and_interned);
    ("obs.export_guard", `Quick, test_export_guard_refuses_overwrite);
  ]

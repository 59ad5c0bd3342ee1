(* Tests for the observability layer: span nesting and balance invariants,
   metrics snapshot/diff algebra, concurrent emission from several domains,
   exporter round-trips, and the overwrite guard behind bench --trace and
   --metrics (which --force lifts, as it does for campaign --checkpoint
   journals). *)

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
  (* Sequence numbers are the emission order, 0-based and gapless when a
     single domain emits. *)
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
  check_err "time going backwards in one domain"
    [ ev 0 2.0 Trace.Instant "a"; ev 1 1.0 Trace.Instant "b" ];
  (* Per-domain clocks are independent: an older timestamp on another
     domain is fine. *)
  check_ok
    [
      ev 0 2.0 Trace.Instant "a";
      { (ev 1 1.0 Trace.Instant "b") with Trace.ev_domain = 1 };
    ]

(* ---- concurrent emission ---- *)

let test_concurrent_domains_merge () =
  let per_domain = 50 and domains = 4 in
  let evs =
    traced (fun () ->
        let worker d () =
          for i = 1 to per_domain / 2 do
            Trace.with_span
              (Printf.sprintf "d%d.task" d)
              ~args:[ ("i", string_of_int i) ]
              (fun () -> ())
          done
        in
        let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
        List.iter Domain.join ds;
        Trace.events ())
  in
  Alcotest.(check int) "every event arrived" (per_domain * domains)
    (List.length evs);
  check_ok evs;
  (* The merge must interleave without losing any domain. *)
  let doms =
    List.sort_uniq compare (List.map (fun e -> e.Trace.ev_domain) evs)
  in
  Alcotest.(check int) "all domains represented" domains (List.length doms)

(* ---- exporters ---- *)

let sample_events () =
  traced (fun () ->
      Trace.span_begin "solve" ~args:[ ("design", "alu \"quoted\"") ];
      Trace.counter "conflicts" 17.5;
      Trace.instant "restart";
      Trace.span_end "solve";
      Trace.events ())

let test_ndjson_roundtrip () =
  let evs = sample_events () in
  let buf = Buffer.create 256 in
  Trace.to_ndjson buf evs;
  match Trace.parse_ndjson (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "ndjson did not parse: %s" msg
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
  let buf = Buffer.create 256 in
  Trace.to_chrome buf evs;
  match Json.parse (Buffer.contents buf) with
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

let test_validate_file_both_formats () =
  let evs = sample_events () in
  let tmp fmt =
    let path = Filename.temp_file "gqed_obs" ".trace" in
    Trace.write ~format:fmt path evs;
    path
  in
  List.iter
    (fun fmt ->
      let path = tmp fmt in
      (match Trace.validate_file path with
      | Ok n -> Alcotest.(check int) "all events seen" (List.length evs) n
      | Error msg -> Alcotest.failf "validate_file rejected: %s" msg);
      Sys.remove path)
    [ `Ndjson; `Chrome ]

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

let test_metrics_concurrent_adds () =
  Metrics.reset ();
  let c = Metrics.counter "conc.count" in
  let g = Metrics.gauge "conc.sum" in
  let per = 10_000 and domains = 4 in
  let worker () =
    for _ = 1 to per do
      Metrics.incr c;
      (* Gauge used as a float accumulator exercises the CAS loop. *)
      Metrics.set g 1.0
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  (match List.assoc_opt "conc.count" (Metrics.snapshot ()) with
  | Some (Metrics.Counter n) ->
      Alcotest.(check int) "no lost increments" (per * domains) n
  | _ -> Alcotest.fail "counter missing");
  Metrics.reset ()

(* ---- export guard (bench --trace / --metrics overwrite regression;
   campaign --checkpoint journals refuse the same way in
   Persist.Campaign) ---- *)

let test_export_guard_refuses_overwrite () =
  let path = Filename.temp_file "gqed_obs" ".json" in
  (match Obs.Export.guard ~force:false path with
  | Ok () -> Alcotest.fail "guard allowed clobbering an existing file"
  | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the file" true (contains msg path);
      Alcotest.(check bool) "error mentions --force" true (contains msg "--force"));
  (match Obs.Export.guard ~force:true path with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "guard refused despite force: %s" msg);
  Sys.remove path;
  match Obs.Export.guard ~force:false path with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "guard refused a fresh path: %s" msg

let suite =
  [
    ("obs.disabled_silent", `Quick, test_disabled_emits_nothing);
    ("obs.nested_balanced", `Quick, test_nested_spans_balanced);
    ("obs.with_span_raise", `Quick, test_with_span_closes_on_raise);
    ("obs.reject_unbalanced", `Quick, test_checker_rejects_unbalanced);
    ("obs.reject_seq", `Quick, test_checker_rejects_seq_violations);
    ("obs.concurrent_merge", `Quick, test_concurrent_domains_merge);
    ("obs.ndjson_roundtrip", `Quick, test_ndjson_roundtrip);
    ("obs.chrome_parses", `Quick, test_chrome_export_parses);
    ("obs.validate_file", `Quick, test_validate_file_both_formats);
    ("obs.metrics_diff", `Quick, test_metrics_snapshot_and_diff);
    ("obs.metrics_interning", `Quick, test_metrics_snapshot_sorted_and_interned);
    ("obs.metrics_concurrent", `Quick, test_metrics_concurrent_adds);
    ("obs.export_guard", `Quick, test_export_guard_refuses_overwrite);
  ]

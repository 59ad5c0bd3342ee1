(* Regression tests for the bench report helpers, in particular the
   gqed-bench/5 fix that budget-starved experiments report a null
   est_speedup_vs_1domain instead of a task-sum ratio that means
   nothing (the rob experiment runs its checks under 1-conflict budgets,
   so its task timings say nothing about 1-domain cost). *)

module Report = Bench_report.Report

let test_starved_is_null () =
  (* The exact regression: rob is starved, so even perfectly good-looking
     timings must yield no speedup figure. *)
  Alcotest.(check bool)
    "rob is registered as starved" true
    (Report.is_starved "rob");
  (match
     Report.est_speedup_vs_1domain
       ~starved:(Report.is_starved "rob")
       ~wall_s:1.0 ~task_sum_s:8.0
   with
  | None -> ()
  | Some v -> Alcotest.failf "starved experiment produced speedup %.3f" v);
  Alcotest.(check string)
    "starved speedup serializes as JSON null" "null"
    (Report.json_float_opt
       (Report.est_speedup_vs_1domain ~starved:true ~wall_s:1.0 ~task_sum_s:8.0))

let test_normal_speedup () =
  (match
     Report.est_speedup_vs_1domain ~starved:false ~wall_s:2.0 ~task_sum_s:8.0
   with
  | Some v -> Alcotest.(check (float 1e-9)) "task-sum / wall" 4.0 v
  | None -> Alcotest.fail "normal experiment lost its speedup figure");
  Alcotest.(check string)
    "serializes with three decimals" "4.000"
    (Report.json_float_opt
       (Report.est_speedup_vs_1domain ~starved:false ~wall_s:2.0 ~task_sum_s:8.0))

let test_degenerate_timings_are_null () =
  List.iter
    (fun (wall_s, task_sum_s) ->
      match Report.est_speedup_vs_1domain ~starved:false ~wall_s ~task_sum_s with
      | None -> ()
      | Some v ->
          Alcotest.failf "wall=%g task_sum=%g produced speedup %.3f" wall_s
            task_sum_s v)
    [ (0.0, 8.0); (2.0, 0.0); (-1.0, 8.0); (2.0, -1.0) ]

let test_only_rob_is_starved () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " not starved") false (Report.is_starved id))
    [ "e1"; "e2"; "rb"; "p1"; "r2" ]

let test_geo_mean_ratio () =
  (match Report.geo_mean_ratio [ (4.0, 1.0); (1.0, 1.0) ] with
  | Some v -> Alcotest.(check (float 1e-9)) "geo-mean of 4x and 1x" 2.0 v
  | None -> Alcotest.fail "usable pairs produced no geo-mean");
  (* Nonpositive sides carry no signal and must be filtered, not poison
     the mean. *)
  (match Report.geo_mean_ratio [ (4.0, 1.0); (0.0, 1.0); (1.0, -2.0) ] with
  | Some v -> Alcotest.(check (float 1e-9)) "filtered mean" 4.0 v
  | None -> Alcotest.fail "filtering dropped the usable pair too");
  match Report.geo_mean_ratio [ (0.0, 1.0) ] with
  | None -> ()
  | Some v -> Alcotest.failf "no usable pairs but got %.3f" v

let suite =
  [
    Alcotest.test_case "starved experiment reports null speedup" `Quick
      test_starved_is_null;
    Alcotest.test_case "normal experiment reports task-sum/wall" `Quick
      test_normal_speedup;
    Alcotest.test_case "degenerate timings report null" `Quick
      test_degenerate_timings_are_null;
    Alcotest.test_case "only rob is starved" `Quick test_only_rob_is_starved;
    Alcotest.test_case "geo-mean ratio" `Quick test_geo_mean_ratio;
  ]

(* Regression tests for the bench report helpers: the run's single exit
   gate (any disagreement fails the run, undecided verdicts alone give the
   distinct code 3) and the geo-mean summary figure. *)

module Report = Bench_report.Report

let flip =
  {
    Report.experiment = "p1";
    cell = "accum/correct";
    expected = "pass@6";
    got = "fail:output@3";
  }

let test_gate_flip_fails () =
  Alcotest.(check int) "one flip exits 1" 1 (Report.exit_code ~flips:[ flip ] ~unknowns:0)

let test_gate_flip_beats_unknown () =
  Alcotest.(check int)
    "flips plus unknowns exit 1" 1
    (Report.exit_code
       ~flips:[ flip; { flip with Report.experiment = "dist" } ]
       ~unknowns:4)

let test_gate_unknown_only () =
  Alcotest.(check int) "only unknowns exit 3" 3 (Report.exit_code ~flips:[] ~unknowns:2)

let test_gate_clean () =
  Alcotest.(check int) "nothing exits 0" 0 (Report.exit_code ~flips:[] ~unknowns:0)

let test_flip_names_its_cell () =
  Alcotest.(check string)
    "experiment, cell, expected and got"
    "p1 accum/correct: expected pass@6, got fail:output@3"
    (Report.flip_to_string flip)

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
    Alcotest.test_case "gate: a flip exits 1" `Quick test_gate_flip_fails;
    Alcotest.test_case "gate: flips beat unknowns" `Quick test_gate_flip_beats_unknown;
    Alcotest.test_case "gate: unknowns alone exit 3" `Quick test_gate_unknown_only;
    Alcotest.test_case "gate: clean run exits 0" `Quick test_gate_clean;
    Alcotest.test_case "flip names its cell" `Quick test_flip_names_its_cell;
    Alcotest.test_case "geo-mean ratio" `Quick test_geo_mean_ratio;
  ]

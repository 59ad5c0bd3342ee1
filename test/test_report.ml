(* Regression tests for the bench report helpers: the run's single exit
   gate (any disagreement fails the run). *)

module Report = Bench_report.Report

let flip =
  {
    Report.experiment = "p1";
    cell = "accum/correct";
    expected = "pass@6";
    got = "fail:output@3";
  }

let test_gate_flip_fails () =
  Alcotest.(check int) "one flip exits 1" 1 (Report.exit_code ~flips:[ flip ])

let test_gate_clean () =
  Alcotest.(check int) "nothing exits 0" 0 (Report.exit_code ~flips:[])

let test_flip_names_its_cell () =
  Alcotest.(check string)
    "experiment, cell, expected and got"
    "p1 accum/correct: expected pass@6, got fail:output@3"
    (Report.flip_to_string flip)

let suite =
  [
    Alcotest.test_case "gate: a flip exits 1" `Quick test_gate_flip_fails;
    Alcotest.test_case "gate: clean run exits 0" `Quick test_gate_clean;
    Alcotest.test_case "flip names its cell" `Quick test_flip_names_its_cell;
  ]

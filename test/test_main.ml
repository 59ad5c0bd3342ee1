(* Dist workers are this binary re-exec'd: register the solvers the
   dist tests name, then let a worker invocation take over before
   alcotest sees argv. *)
let () =
  Test_dist.register_solvers ();
  Dist.worker_entry ()

let () =
  Alcotest.run "gqed"
    [
      ("bitvec", Test_bitvec.suite);
      ("sat", Test_sat.suite);
      ("par", Test_par.suite);
      ("vec", Test_vec.suite);
      ("aig", Test_aig.suite);
      ("expr", Test_expr.suite);
      ("rtl", Test_rtl.suite);
      ("bmc", Test_bmc.suite);
      ("qed", Test_qed.suite);
      ("designs", Test_designs.suite);
      ("mutation", Test_mutation.suite);
      ("testbench", Test_testbench.suite);
      ("vcd", Test_vcd.suite);
      ("variable", Test_variable.suite);
      ("fuzz", Test_fuzz.suite);
      ("obs", Test_obs.suite);
      ("matrix", Test_matrix.suite);
      ("report", Test_report.suite);
      ("persist", Test_persist.suite);
      ("dist", Test_dist.suite);
    ]

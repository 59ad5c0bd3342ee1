(* Mutation-framework tests: enumeration is deterministic with unique ids,
   every applied mutant is a valid design, and the bug classes behave as
   designed (CRV catches behavioural mutants; hidden-state mutants separate
   full G-QED from the output-only ablation). *)

module Entry = Designs.Entry
module Registry = Designs.Registry

let accum = Registry.find "accum"

let test_enumeration_nonempty_everywhere () =
  List.iter
    (fun e ->
      let muts = Mutation.enumerate e.Entry.design in
      Alcotest.(check bool) (e.Entry.name ^ " has mutations") true (List.length muts > 4))
    Registry.all

let test_ids_unique_and_stable () =
  let ids1 = List.map (fun m -> m.Mutation.id) (Mutation.enumerate accum.Entry.design) in
  let ids2 = List.map (fun m -> m.Mutation.id) (Mutation.enumerate accum.Entry.design) in
  Alcotest.(check (list string)) "stable" ids1 ids2;
  Alcotest.(check int) "unique" (List.length ids1)
    (List.length (List.sort_uniq String.compare ids1))

let test_all_mutants_valid () =
  List.iter
    (fun e ->
      List.iter
        (fun (m, mutant) ->
          match
            Rtl.validate ~name:mutant.Rtl.name ~inputs:mutant.Rtl.inputs
              ~registers:mutant.Rtl.registers ~outputs:mutant.Rtl.outputs
          with
          | Ok () -> ()
          | Error errs ->
              Alcotest.failf "%s mutant %s invalid: %s" e.Entry.name m.Mutation.id
                (String.concat "; " errs))
        (Mutation.mutants e.Entry.design))
    Registry.all

let test_mutants_differ_syntactically () =
  let muts = Mutation.mutants accum.Entry.design in
  List.iter
    (fun (m, mutant) ->
      Alcotest.(check bool)
        (m.Mutation.id ^ " changes the design")
        false
        (mutant = accum.Entry.design))
    muts

let test_per_operator_limit () =
  let all = Mutation.mutants accum.Entry.design in
  let limited = Mutation.mutants ~per_operator_limit:1 accum.Entry.design in
  Alcotest.(check bool) "fewer" true (List.length limited < List.length all);
  let operators =
    List.map (fun (m, _) -> m.Mutation.operator) limited |> List.sort_uniq compare
  in
  Alcotest.(check int) "one per applicable operator" (List.length limited)
    (List.length operators)

let test_crv_detects_off_by_one () =
  let m, mutant =
    List.find
      (fun (m, _) -> m.Mutation.operator = Mutation.Off_by_one)
      (Mutation.mutants accum.Entry.design)
  in
  ignore m;
  let outcome =
    Testbench.Crv.run ~design_override:mutant accum
      { Testbench.Crv.seed = 7; max_transactions = 200; idle_prob = 0.2 }
  in
  Alcotest.(check bool) "detected" true outcome.Testbench.Crv.detected

let test_stuck_arch_reg_is_uniform_escape () =
  (* A stuck architectural register turns the accumulator into a different
     but perfectly deterministic transactional machine (the identity
     accumulator frozen at reset). Self-consistency provably cannot
     distinguish a uniformly-wrong machine from a correct one without a
     spec — this is the documented escape class of the QED family. The
     conventional flow, which owns a golden model, does catch it. *)
  let _, mutant =
    List.find
      (fun (m, _) -> m.Mutation.operator = Mutation.Stuck_reg)
      (Mutation.mutants accum.Entry.design)
  in
  let report = Qed.Checks.gqed mutant accum.Entry.iface ~bound:6 in
  (match report.Qed.Checks.verdict with
  | Qed.Checks.Pass _ -> ()
  | Qed.Checks.Fail _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "uniform bug unexpectedly flagged");
  (* Brute force confirms the mutant is transactionally deterministic, so
     the G-QED pass is the sound answer. *)
  let alphabet =
    Qed.Theory.default_alphabet ~operand_values:[ 0; 1; 3 ] mutant accum.Entry.iface
  in
  (match Qed.Theory.transaction_table mutant accum.Entry.iface ~alphabet ~depth:4 with
  | `Deterministic _ -> ()
  | `Conflict _ -> Alcotest.fail "stuck accumulator should be deterministic");
  let crv =
    Testbench.Crv.run ~design_override:mutant accum
      { Testbench.Crv.seed = 5; max_transactions = 300; idle_prob = 0.2 }
  in
  Alcotest.(check bool) "golden-model baseline catches it" true crv.Testbench.Crv.detected

let test_stuck_valid_pipeline_caught_by_sa () =
  (* A stuck valid-pipeline register drops every response: invisible to
     G-FC (both copies drop responses consistently) but caught by the
     single-action (responsiveness) side condition. *)
  let alu = Registry.find "alu_pipe" in
  let _, mutant =
    List.find
      (fun (m, _) ->
        m.Mutation.operator = Mutation.Stuck_reg && m.Mutation.target = "next(v1)")
      (Mutation.mutants alu.Entry.design)
  in
  let report = Qed.Checks.sa_check mutant alu.Entry.iface ~bound:6 in
  match report.Qed.Checks.verdict with
  | Qed.Checks.Fail f ->
      Alcotest.(check string) "kind" "sa-response"
        (Qed.Checks.failure_kind_to_string f.Qed.Checks.kind)
  | Qed.Checks.Pass _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "SA missed the dropped responses"

let test_hidden_state_ablation_on_suite_design () =
  (* The hidden-state mutant of the accumulator: stored state corrupted,
     response path intact. Full G-QED catches it via the post-state
     conjunct; the output-only ablation passes. *)
  let _, mutant =
    List.find
      (fun (m, _) ->
        m.Mutation.operator = Mutation.Hidden_state
        && m.Mutation.target = "next(acc)")
      (Mutation.mutants accum.Entry.design)
  in
  let full = Qed.Checks.gqed mutant accum.Entry.iface ~bound:6 in
  (match full.Qed.Checks.verdict with
  | Qed.Checks.Fail f ->
      Alcotest.(check string) "kind" "gfc-state"
        (Qed.Checks.failure_kind_to_string f.Qed.Checks.kind)
  | Qed.Checks.Pass _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "full G-QED missed hidden-state mutant");
  let ablated = Qed.Checks.gqed_output_only mutant accum.Entry.iface ~bound:6 in
  (match ablated.Qed.Checks.verdict with
  | Qed.Checks.Pass _ -> ()
  | Qed.Checks.Fail _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "output-only unexpectedly caught state corruption");
  (* CRV with the golden model also catches it (the conventional flow can
     see it, given its full reference model). *)
  let crv =
    Testbench.Crv.run ~design_override:mutant accum
      { Testbench.Crv.seed = 3; max_transactions = 400; idle_prob = 0.2 }
  in
  Alcotest.(check bool) "crv detects" true crv.Testbench.Crv.detected

let test_hidden_output_caught_by_gqed () =
  let _, mutant =
    List.find
      (fun (m, _) -> m.Mutation.operator = Mutation.Hidden_output)
      (Mutation.mutants accum.Entry.design)
  in
  let report = Qed.Checks.gqed mutant accum.Entry.iface ~bound:6 in
  match report.Qed.Checks.verdict with
  | Qed.Checks.Fail _ -> ()
  | Qed.Checks.Pass _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "G-QED missed hidden-output mutant"

let test_rare_mutant_escapes_crv_but_not_gqed () =
  (* The flagship contrast: a rare-coincidence interference bug. Random
     simulation must hit hidden-phase AND magic operand AND magic state
     simultaneously; symbolic search constructs the coincidence directly. *)
  let _, mutant =
    List.find
      (fun (m, _) ->
        m.Mutation.operator = Mutation.Rare_output && m.Mutation.target = "out(sum)")
      (Mutation.mutants accum.Entry.design)
  in
  let gq = Qed.Checks.gqed mutant accum.Entry.iface ~bound:accum.Entry.rec_bound in
  (match gq.Qed.Checks.verdict with
  | Qed.Checks.Fail f ->
      Alcotest.(check bool) "genuine" true
        (Qed.Theory.witness_is_genuine mutant accum.Entry.iface f)
  | Qed.Checks.Pass _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "G-QED missed the rare interference bug");
  (* CRV detection is a matter of luck; across a handful of seeds at a
     modest budget, at least one seed should miss it (if every seed caught
     it instantly the bug would not be "rare"). *)
  let misses =
    List.filter
      (fun seed ->
        let outcome =
          Testbench.Crv.run ~design_override:mutant accum
            { Testbench.Crv.seed; max_transactions = 200; idle_prob = 0.2 }
        in
        not outcome.Testbench.Crv.detected)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "some CRV seeds miss it (%d/6 missed)" (List.length misses))
    true
    (List.length misses >= 1)

let test_rare_state_mutant_gqed () =
  let _, mutant =
    List.find
      (fun (m, _) ->
        m.Mutation.operator = Mutation.Rare_state && m.Mutation.target = "next(acc)")
      (Mutation.mutants accum.Entry.design)
  in
  let gq = Qed.Checks.gqed mutant accum.Entry.iface ~bound:accum.Entry.rec_bound in
  match gq.Qed.Checks.verdict with
  | Qed.Checks.Fail f ->
      Alcotest.(check string) "state kind" "gfc-state"
        (Qed.Checks.failure_kind_to_string f.Qed.Checks.kind)
  | Qed.Checks.Pass _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "G-QED missed the rare state bug"

let test_flow_catches_init_corrupt () =
  (* The documented-reset stage of the flow catches corrupted arch resets. *)
  let _, mutant =
    List.find
      (fun (m, _) ->
        m.Mutation.operator = Mutation.Init_corrupt && m.Mutation.target = "init(acc)")
      (Mutation.mutants accum.Entry.design)
  in
  let report = Qed.Checks.flow mutant accum.Entry.iface ~bound:6 in
  match report.Qed.Checks.verdict with
  | Qed.Checks.Fail f ->
      Alcotest.(check string) "kind" "reset-value"
        (Qed.Checks.failure_kind_to_string f.Qed.Checks.kind)
  | Qed.Checks.Pass _ | Qed.Checks.Unknown _ ->
      Alcotest.fail "flow missed the corrupted reset"

let test_apply_unknown_target () =
  let m =
    {
      Mutation.id = "x";
      operator = Mutation.Stuck_reg;
      target = "next(phantom)";
      site = 0;
      description = "";
    }
  in
  Alcotest.(check bool) "None" true (Mutation.apply accum.Entry.design m = None)

let test_init_corrupt_changes_reset () =
  let _, mutant =
    List.find
      (fun (m, _) -> m.Mutation.operator = Mutation.Init_corrupt)
      (Mutation.mutants accum.Entry.design)
  in
  let orig = Rtl.initial_state accum.Entry.design in
  let mut = Rtl.initial_state mutant in
  Alcotest.(check bool) "reset differs" false (Rtl.Smap.equal Bitvec.equal orig mut)

(* Global soundness property: whatever mutant the framework produces, a
   failure reported by the full flow must replay as a genuine
   inconsistency on the concrete trace. *)
let prop_flow_failures_are_genuine =
  let designs = [ "accum"; "maxtrack"; "rle"; "seqdet"; "satcnt"; "arb4" ] in
  QCheck.Test.make ~count:30 ~name:"flow failures replay as genuine"
    (QCheck.make
       ~print:(fun (d, i) -> Printf.sprintf "%s mutant#%d" d i)
       QCheck.Gen.(
         oneofl designs >>= fun d ->
         int_bound 200 >>= fun i -> return (d, i)))
    (fun (dname, idx) ->
      let e = Registry.find dname in
      let muts = Mutation.mutants e.Entry.design in
      let m, mutant = List.nth muts (idx mod List.length muts) in
      match (Qed.Checks.flow mutant e.Entry.iface ~bound:5).Qed.Checks.verdict with
      | Qed.Checks.Pass _ -> true
      | Qed.Checks.Fail f ->
          ignore m;
          Qed.Theory.witness_is_genuine mutant e.Entry.iface f
      | Qed.Checks.Unknown _ -> false)

(* Subsumption: on non-interfering designs, any bug A-QED catches must
   also be caught by the G-QED flow (the paper's "G-QED subsumes A-QED"
   claim, exercised over the mutant suites of two designs). *)
let test_gqed_subsumes_aqed () =
  List.iter
    (fun name ->
      let e = Registry.find name in
      List.iter
        (fun (m, mutant) ->
          let bound = e.Entry.rec_bound in
          let aqed = Qed.Checks.aqed_fc mutant e.Entry.iface ~bound in
          match aqed.Qed.Checks.verdict with
          | Qed.Checks.Pass _ | Qed.Checks.Unknown _ -> ()
          | Qed.Checks.Fail _ -> (
              match (Qed.Checks.flow mutant e.Entry.iface ~bound).Qed.Checks.verdict with
              | Qed.Checks.Fail _ -> ()
              | Qed.Checks.Pass _ | Qed.Checks.Unknown _ ->
                  Alcotest.failf "%s/%s: A-QED caught it but the G-QED flow missed it"
                    name m.Mutation.id))
        (Mutation.mutants ~per_operator_limit:1 e.Entry.design))
    [ "graycodec"; "absdiff" ]

let suite =
  [
    ("mutation.enumeration", `Quick, test_enumeration_nonempty_everywhere);
    ("mutation.ids", `Quick, test_ids_unique_and_stable);
    ("mutation.mutants_valid", `Slow, test_all_mutants_valid);
    ("mutation.mutants_differ", `Quick, test_mutants_differ_syntactically);
    ("mutation.per_operator_limit", `Quick, test_per_operator_limit);
    ("mutation.crv_off_by_one", `Quick, test_crv_detects_off_by_one);
    ("mutation.stuck_arch_escape", `Quick, test_stuck_arch_reg_is_uniform_escape);
    ("mutation.stuck_valid_sa", `Quick, test_stuck_valid_pipeline_caught_by_sa);
    ("mutation.hidden_state_ablation", `Slow, test_hidden_state_ablation_on_suite_design);
    ("mutation.hidden_output", `Quick, test_hidden_output_caught_by_gqed);
    ("mutation.rare_output", `Quick, test_rare_mutant_escapes_crv_but_not_gqed);
    ("mutation.rare_state", `Quick, test_rare_state_mutant_gqed);
    ("mutation.flow_init_corrupt", `Quick, test_flow_catches_init_corrupt);
    ("mutation.unknown_target", `Quick, test_apply_unknown_target);
    ("mutation.init_corrupt", `Quick, test_init_corrupt_changes_reset);
    ("mutation.gqed_subsumes_aqed", `Slow, test_gqed_subsumes_aqed);
    Qc.to_alcotest prop_flow_failures_are_genuine;
  ]

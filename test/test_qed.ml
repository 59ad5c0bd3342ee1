(* Core QED checks validated on hand-built mini designs with known-correct
   verdicts:

   - a correct accumulator (interfering): G-QED passes, A-QED false-alarms;
   - an accumulator with hidden-state output interference: G-QED catches it;
   - an accumulator with hidden-state *state corruption*: only the
     post-state conjunct catches it (the R-A1 ablation in miniature);
   - non-interfering designs: A-QED and G-QED agree;
   - single-action (responsiveness) violations;
   - every reported witness passes the per-witness soundness replay;
   - brute-force transaction tables agree with the verdicts (bounded
     soundness/completeness). *)

module Bv = Bitvec
module Iface = Qed.Iface
module Checks = Qed.Checks
module Theory = Qed.Theory
module Decompose = Qed.Decompose

let w = 3

let reg name width init next = { Rtl.reg = { Expr.name = name; width }; init; next }

let valid = Expr.var "valid" 1
let x = Expr.var "x" w
let acc = Expr.var "acc" w
let hid = Expr.var "hid" 1

type accum_bug = No_bug | Hidden_op | State_skew

(* Accumulator: on a valid cycle, respond with acc + x and store it.
   Interfering by design (the response depends on acc). *)
let accum bug =
  let sum_plain = Expr.add acc x in
  let stored, sum, extra_regs =
    match bug with
    | No_bug -> (sum_plain, sum_plain, [])
    | Hidden_op ->
        (* A hidden toggle flips every cycle and corrupts the *response*
           datapath on odd cycles. *)
        ( sum_plain,
          Expr.ite hid (Expr.or_ acc x) sum_plain,
          [ reg "hid" 1 (Bv.zero 1) (Expr.not_ hid) ] )
    | State_skew ->
        (* A hidden toggle flips on each dispatch and corrupts the *stored*
           state on alternate transactions; the response stays correct. *)
        ( Expr.ite hid (Expr.add sum_plain (Expr.const_int ~width:w 1)) sum_plain,
          sum_plain,
          [ reg "hid" 1 (Bv.zero 1) (Expr.ite valid (Expr.not_ hid) hid) ] )
  in
  Rtl.make ~name:"accum"
    ~inputs:[ { Expr.name = "valid"; width = 1 }; { Expr.name = "x"; width = w } ]
    ~registers:(reg "acc" w (Bv.zero w) (Expr.ite valid stored acc) :: extra_regs)
    ~outputs:[ ("sum", sum) ]

let accum_iface =
  Iface.make ~in_valid:"valid" ~in_data:[ "x" ] ~out_data:[ "sum" ] ~latency:0
    ~arch_regs:[ "acc" ] ()

(* Pure-function design: y = 2x + 1 combinationally. *)
let pure_fn ~buggy =
  let y_good = Expr.add (Expr.add x x) (Expr.const_int ~width:w 1) in
  let y = if buggy then Expr.ite hid (Expr.add x x) y_good else y_good in
  Rtl.make ~name:"pure_fn"
    ~inputs:[ { Expr.name = "valid"; width = 1 }; { Expr.name = "x"; width = w } ]
    ~registers:(if buggy then [ reg "hid" 1 (Bv.zero 1) (Expr.not_ hid) ] else [])
    ~outputs:[ ("y", y) ]

let pure_iface =
  Iface.make ~in_valid:"valid" ~in_data:[ "x" ] ~out_data:[ "y" ] ~latency:0
    ~arch_regs:[] ()

(* Two-stage pipeline with an out_valid: y = x + 1 after 2 cycles. *)
let pipe2 ~sa_bug =
  let v1 = Expr.var "v1" 1 and v2 = Expr.var "v2" 1 in
  let r1 = Expr.var "r1" w and r2 = Expr.var "r2" w in
  Rtl.make ~name:"pipe2"
    ~inputs:[ { Expr.name = "valid"; width = 1 }; { Expr.name = "x"; width = w } ]
    ~registers:
      [
        reg "v1" 1 (Bv.zero 1) valid;
        (* SA bug: the valid pipeline drops transactions whose operand is
           all-ones (data-dependent response loss). *)
        reg "v2" 1 (Bv.zero 1)
          (if sa_bug then
             Expr.and_ v1 (Expr.ne r1 (Expr.const_int ~width:w ((1 lsl w) - 1)))
           else v1);
        reg "r1" w (Bv.zero w) x;
        reg "r2" w (Bv.zero w) (Expr.add r1 (Expr.const_int ~width:w 1));
      ]
    ~outputs:[ ("ov", v2); ("y", r2) ]

let pipe2_iface =
  Iface.make ~in_valid:"valid" ~out_valid:"ov" ~in_data:[ "x" ] ~out_data:[ "y" ]
    ~latency:2 ~arch_regs:[] ()

let verdict_pass = function
  | Checks.Pass _ -> true
  | Checks.Fail _ | Checks.Unknown _ -> false

let fail_kind report =
  match report.Checks.verdict with
  | Checks.Fail f -> Some f.Checks.kind
  | Checks.Pass _ | Checks.Unknown _ -> None

(* ---- correct accumulator ---- *)

let test_gqed_passes_on_correct_accum () =
  let report = Checks.gqed (accum No_bug) accum_iface ~bound:7 in
  Alcotest.(check bool) "gqed passes" true (verdict_pass report.Checks.verdict)

let test_aqed_false_alarm_on_interfering () =
  (* The motivating limitation: plain FC flags a correct interfering design. *)
  let report = Checks.aqed_fc (accum No_bug) accum_iface ~bound:7 in
  Alcotest.(check (option string)) "fc-output false alarm" (Some "fc-output")
    (Option.map Checks.failure_kind_to_string (fail_kind report))

(* ---- hidden-state output interference ---- *)

let test_gqed_catches_hidden_op () =
  let report = Checks.gqed (accum Hidden_op) accum_iface ~bound:8 in
  match report.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check string) "kind" "gfc-output"
        (Checks.failure_kind_to_string f.Checks.kind);
      Alcotest.(check bool) "witness genuine" true
        (Theory.witness_is_genuine (accum Hidden_op) accum_iface f)
  | Checks.Pass _ | Checks.Unknown _ -> Alcotest.fail "G-QED missed the hidden-op bug"

(* ---- hidden-state state corruption: the ablation separator ---- *)

let test_state_conjunct_is_load_bearing () =
  let d = accum State_skew in
  let full = Checks.gqed d accum_iface ~bound:8 in
  let out_only = Checks.gqed_output_only d accum_iface ~bound:8 in
  (match full.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check string) "kind" "gfc-state"
        (Checks.failure_kind_to_string f.Checks.kind);
      Alcotest.(check bool) "witness genuine" true
        (Theory.witness_is_genuine d accum_iface f)
  | Checks.Pass _ | Checks.Unknown _ ->
      Alcotest.fail "full G-QED missed the state-skew bug");
  Alcotest.(check bool) "output-only misses it" true
    (verdict_pass out_only.Checks.verdict)

(* ---- non-interfering designs ---- *)

let test_pure_fn_correct_both_pass () =
  Alcotest.(check bool) "aqed" true
    (verdict_pass (Checks.aqed_fc (pure_fn ~buggy:false) pure_iface ~bound:6).Checks.verdict);
  Alcotest.(check bool) "gqed" true
    (verdict_pass (Checks.gqed (pure_fn ~buggy:false) pure_iface ~bound:6).Checks.verdict)

let test_pure_fn_buggy_both_fail () =
  let d = pure_fn ~buggy:true in
  let a = Checks.aqed_fc d pure_iface ~bound:6 in
  let g = Checks.gqed d pure_iface ~bound:6 in
  Alcotest.(check bool) "aqed fails" false (verdict_pass a.Checks.verdict);
  Alcotest.(check bool) "gqed fails" false (verdict_pass g.Checks.verdict);
  (match a.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check bool) "aqed witness genuine" true
        (Theory.witness_is_genuine d pure_iface f)
  | Checks.Pass _ | Checks.Unknown _ -> ());
  match g.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check bool) "gqed witness genuine" true
        (Theory.witness_is_genuine d pure_iface f)
  | Checks.Pass _ | Checks.Unknown _ -> ()

(* ---- pipeline + single-action ---- *)

let test_pipeline_passes () =
  Alcotest.(check bool) "sa passes" true
    (verdict_pass (Checks.sa_check (pipe2 ~sa_bug:false) pipe2_iface ~bound:8).Checks.verdict);
  Alcotest.(check bool) "gqed passes" true
    (verdict_pass (Checks.gqed (pipe2 ~sa_bug:false) pipe2_iface ~bound:8).Checks.verdict);
  Alcotest.(check bool) "aqed passes" true
    (verdict_pass (Checks.aqed_fc (pipe2 ~sa_bug:false) pipe2_iface ~bound:8).Checks.verdict)

let test_sa_catches_dropped_response () =
  let d = pipe2 ~sa_bug:true in
  let report = Checks.sa_check d pipe2_iface ~bound:8 in
  match report.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check string) "kind" "sa-response"
        (Checks.failure_kind_to_string f.Checks.kind);
      Alcotest.(check bool) "witness genuine" true
        (Theory.witness_is_genuine d pipe2_iface f)
  | Checks.Pass _ | Checks.Unknown _ -> Alcotest.fail "SA missed the dropped response"

(* ---- brute-force agreement (bounded soundness/completeness) ---- *)

let small_alphabet design = Theory.default_alphabet ~operand_values:[ 0; 1; 5 ] design

let test_brute_force_deterministic_correct_accum () =
  let d = accum No_bug in
  match
    Theory.transaction_table d accum_iface ~alphabet:(small_alphabet d accum_iface)
      ~depth:4
  with
  | `Deterministic n -> Alcotest.(check bool) "several keys" true (n > 3)
  | `Conflict c ->
      Alcotest.fail
        (Format.asprintf "unexpected conflict: %a" Theory.pp_conflict c)

let test_brute_force_conflict_hidden_op () =
  let d = accum Hidden_op in
  match
    Theory.transaction_table d accum_iface ~alphabet:(small_alphabet d accum_iface)
      ~depth:4
  with
  | `Conflict _ -> ()
  | `Deterministic _ -> Alcotest.fail "brute force missed hidden-op interference"

let test_soundness_and_completeness () =
  let cases =
    [ (accum No_bug, accum_iface); (accum Hidden_op, accum_iface);
      (accum State_skew, accum_iface); (pure_fn ~buggy:false, pure_iface);
      (pure_fn ~buggy:true, pure_iface) ]
  in
  List.iter
    (fun (d, iface) ->
      let alphabet = small_alphabet d iface in
      Alcotest.(check bool)
        (d.Rtl.name ^ " soundness")
        true
        (Theory.soundness_holds d iface ~alphabet ~depth:4 ~bound:7);
      Alcotest.(check bool)
        (d.Rtl.name ^ " completeness")
        true
        (Theory.completeness_holds d iface ~alphabet ~depth:4 ~bound:9))
    cases

(* ---- side conditions: stability, reset, flow ---- *)

let test_stability_holds_on_correct_accum () =
  let report = Checks.stability_check (accum No_bug) accum_iface ~bound:8 in
  Alcotest.(check bool) "stable" true (verdict_pass report.Checks.verdict)

(* A design whose architectural state drifts on idle cycles: the arch
   register increments whenever no transaction is dispatched. *)
let drifting_accum () =
  let sum = Expr.add acc x in
  Rtl.make ~name:"drift"
    ~inputs:[ { Expr.name = "valid"; width = 1 }; { Expr.name = "x"; width = w } ]
    ~registers:
      [
        reg "acc" w (Bv.zero w)
          (Expr.ite valid sum (Expr.add acc (Expr.const_int ~width:w 1)));
      ]
    ~outputs:[ ("sum", sum) ]

let test_stability_catches_idle_drift () =
  let d = drifting_accum () in
  let report = Checks.stability_check d accum_iface ~bound:6 in
  match report.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check string) "kind" "stability"
        (Checks.failure_kind_to_string f.Checks.kind);
      Alcotest.(check bool) "witness genuine" true
        (Theory.witness_is_genuine d accum_iface f)
  | Checks.Pass _ | Checks.Unknown _ -> Alcotest.fail "stability missed the idle drift"

let test_stability_vacuous_without_arch () =
  let report = Checks.stability_check (pure_fn ~buggy:false) pure_iface ~bound:6 in
  Alcotest.(check bool) "vacuous pass" true (verdict_pass report.Checks.verdict)

let accum_iface_documented =
  Iface.make ~in_valid:"valid" ~in_data:[ "x" ] ~out_data:[ "sum" ] ~latency:0
    ~arch_regs:[ "acc" ]
    ~arch_reset:[ ("acc", Bv.zero w) ]
    ()

let test_reset_check_pass_and_fail () =
  let ok = Checks.reset_check (accum No_bug) accum_iface_documented in
  Alcotest.(check bool) "matches documentation" true (verdict_pass ok.Checks.verdict);
  (* Corrupt the reset value. *)
  let bad_design =
    Rtl.make ~name:"accum"
      ~inputs:[ { Expr.name = "valid"; width = 1 }; { Expr.name = "x"; width = w } ]
      ~registers:
        [ reg "acc" w (Bv.one w) (Expr.ite valid (Expr.add acc x) acc) ]
      ~outputs:[ ("sum", Expr.add acc x) ]
  in
  let bad = Checks.reset_check bad_design accum_iface_documented in
  match bad.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check string) "kind" "reset-value"
        (Checks.failure_kind_to_string f.Checks.kind);
      Alcotest.(check bool) "witness genuine" true
        (Theory.witness_is_genuine bad_design accum_iface_documented f)
  | Checks.Pass _ | Checks.Unknown _ ->
      Alcotest.fail "reset check missed the corrupted reset"

let test_flow_first_failure_wins () =
  (* The drifting accumulator fails the stability stage of the flow (the
     G-FC stage would pass it). *)
  let d = drifting_accum () in
  let report = Checks.flow d accum_iface ~bound:6 in
  (match report.Checks.verdict with
  | Checks.Fail f ->
      Alcotest.(check string) "kind" "stability"
        (Checks.failure_kind_to_string f.Checks.kind)
  | Checks.Pass _ | Checks.Unknown _ -> Alcotest.fail "flow missed the drift");
  (* And the flow passes the correct design end to end. *)
  let ok = Checks.flow (accum No_bug) accum_iface_documented ~bound:6 in
  Alcotest.(check bool) "flow passes correct design" true (verdict_pass ok.Checks.verdict)

(* ---- iface validation ---- *)

let test_iface_validation () =
  let d = accum No_bug in
  let bad = Iface.make ~in_valid:"nope" ~in_data:[ "x" ] ~out_data:[ "sum" ] ~latency:0 ~arch_regs:[] () in
  (match Iface.validate d bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid in_valid");
  let bad2 = Iface.make ~in_data:[ "x" ] ~out_data:[ "sum" ] ~latency:(-1) ~arch_regs:[] () in
  (match Iface.validate d bad2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid latency");
  let bad3 = Iface.make ~in_data:[ "x" ] ~out_data:[ "sum" ] ~latency:0 ~arch_regs:[ "x" ] () in
  match Iface.validate d bad3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid arch reg"

(* ---- decomposition harness ---- *)

let test_decomposition () =
  let subs =
    [
      { Decompose.sub_name = "good_accum"; sub_design = accum No_bug; sub_iface = accum_iface };
      { Decompose.sub_name = "good_fn"; sub_design = pure_fn ~buggy:false; sub_iface = pure_iface };
    ]
  in
  let r = Decompose.check_all subs ~bound:6 in
  Alcotest.(check bool) "all pass" true r.Decompose.all_pass;
  let subs_bad =
    subs
    @ [ { Decompose.sub_name = "bad_fn"; sub_design = pure_fn ~buggy:true; sub_iface = pure_iface } ]
  in
  let r = Decompose.check_all subs_bad ~bound:6 in
  Alcotest.(check bool) "detects failure" false r.Decompose.all_pass;
  match Decompose.first_failure r with
  | Some (name, _) -> Alcotest.(check string) "right sub" "bad_fn" name
  | None -> Alcotest.fail "no failure reported"

(* ---- formula-shrinking pipeline ---- *)

(* G-QED at bound 7 on the default pipeline passes the correct accum and
   catches the hidden-op bug. *)
let test_gqed_pipeline_agrees () =
  let agree name design expect_pass =
    let report = Checks.gqed design accum_iface ~bound:7 in
    Alcotest.(check bool) name expect_pass (verdict_pass report.Checks.verdict)
  in
  agree "correct accum" (accum No_bug) true;
  agree "hidden-op accum" (accum Hidden_op) false

(* The engine answers every query on its one solver and preprocesses it
   before every query after the first one that took more than 500
   conflicts; each bmc.query span end says whether its query was
   preprocessed, so within a check no unpreprocessed query follows a
   preprocessed one. hamming74 never gets there, accum does, and both
   still prove at the recommended bound. The checks go through
   [Checks.run], as `gqed verify` does, so each trace holds exactly one
   qed.check span, and both traces must pass the structural checker. *)
let test_solver_path_switches () =
  let paths name =
    let { Designs.Entry.design; iface; rec_bound; _ } = Designs.Registry.find name in
    let was_on = Obs.on () in
    Obs.Trace.reset ();
    Obs.enable ();
    let report, events =
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.reset ();
          if not was_on then Obs.disable ())
        (fun () ->
          let r = Checks.run Checks.Gqed design iface ~bound:rec_bound in
          (r, Obs.Trace.events ()))
    in
    Alcotest.(check bool) (name ^ " proves") true (verdict_pass report.Checks.verdict);
    Alcotest.(check bool) (name ^ " traced events") true (events <> []);
    (match Obs.Trace.check events with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s trace malformed: %s" name msg);
    Alcotest.(check int) (name ^ " qed.check spans") 1
      (List.length
         (List.filter
            (fun (ev : Obs.Trace.event) ->
              ev.ev_name = "qed.check" && ev.ev_kind = Obs.Trace.Begin)
            events));
    let seq =
      List.filter_map
        (fun (ev : Obs.Trace.event) ->
          if ev.ev_name = "bmc.query" && ev.ev_kind = Obs.Trace.End then
            List.assoc_opt "preprocessed" ev.ev_args
          else None)
        events
    in
    let rec switches_once = function
      | "true" :: "false" :: _ -> false
      | _ :: rest -> switches_once rest
      | [] -> true
    in
    Alcotest.(check bool) (name ^ " never stops preprocessing") true (switches_once seq);
    List.sort_uniq compare seq
  in
  Alcotest.(check (list string)) "hamming74 paths" [ "false" ] (paths "hamming74");
  Alcotest.(check (list string)) "accum paths" [ "false"; "true" ] (paths "accum")

(* CNF preprocessing never runs before the trigger and runs once before
   each query after it. In a traced G-QED check of accum, which crosses
   the trigger, every bmc.query span marked preprocessed holds exactly one
   sat.preprocess span and every other one holds none; an untraced
   hamming74 check never crosses it, so its preprocessing totals are all
   zero. *)
let test_preprocess_after_trigger () =
  let { Designs.Entry.design; iface; rec_bound; _ } = Designs.Registry.find "accum" in
  let was_on = Obs.on () in
  Obs.Trace.reset ();
  Obs.enable ();
  let events =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.reset ();
        if not was_on then Obs.disable ())
      (fun () ->
        ignore (Checks.run Checks.Gqed design iface ~bound:rec_bound);
        Obs.Trace.events ())
  in
  let preprocessed = ref 0 and pre = ref 0 in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match (ev.ev_kind, ev.ev_name) with
      | Obs.Trace.Begin, "bmc.query" -> pre := 0
      | Obs.Trace.Begin, "sat.preprocess" -> incr pre
      | Obs.Trace.End, "bmc.query" ->
          let flag = Option.value ~default:"" (List.assoc_opt "preprocessed" ev.ev_args) in
          if flag = "true" then incr preprocessed;
          Alcotest.(check int)
            ("sat.preprocess spans in a query with preprocessed=" ^ flag)
            (if flag = "true" then 1 else 0)
            !pre
      | _ -> ())
    events;
  Alcotest.(check bool) "accum preprocessed some queries" true (!preprocessed > 0);
  let { Designs.Entry.design; iface; rec_bound; _ } = Designs.Registry.find "hamming74" in
  let r = Checks.run Checks.Gqed design iface ~bound:rec_bound in
  let p = r.Checks.simp.Bmc.Engine.ss_pre in
  Alcotest.(check (list int))
    "hamming74 ss_pre all zero" [ 0; 0; 0; 0; 0; 0; 0; 0 ]
    Sat.Solver.
      [
        p.pre_clauses_before;
        p.pre_clauses_after;
        p.pre_subsumed;
        p.pre_strengthened;
        p.pre_eliminated;
        p.pre_resolvents;
        p.pre_units;
        p.pre_restored;
      ]

(* ------------------------------------------------------------------ *)
(* Resource governance at the check level: Unknown verdicts.             *)

let test_limits_produce_unknown () =
  let budget = Sat.Solver.budget ~conflicts:0 () in
  let r = Checks.gqed ~budget (accum No_bug) accum_iface ~bound:4 in
  match r.Checks.verdict with
  | Checks.Unknown u ->
      Alcotest.(check string) "reason" "conflict budget exhausted"
        (Sat.Solver.reason_to_string u.Checks.u_reason)
  | Checks.Pass _ | Checks.Fail _ -> Alcotest.fail "conflict budget did not fire"

(* ---- copy symmetry of the two-copy product ---- *)

(* Rename every dut1__ key to dut2__ and back. *)
let swap_copies (v : Rtl.valuation) =
  let p1 = Checks.copy1_prefix and p2 = Checks.copy2_prefix in
  let swap key =
    let move from into =
      into ^ String.sub key (String.length from) (String.length key - String.length from)
    in
    if String.starts_with ~prefix:p1 key then move p1 p2
    else if String.starts_with ~prefix:p2 key then move p2 p1
    else key
  in
  Rtl.Smap.fold (fun key x acc -> Rtl.Smap.add (swap key) x acc) v Rtl.Smap.empty

(* Fixed-latency G-QED queries only the pairs (i, j) with i <= j: the
   copies are renamings of one design with independent inputs, so a
   failure of (j, i) is the same failure with the copies swapped. On golden
   detected cells, every failure must come with cycle_a <= cycle_b, and the
   witness with its copies swapped must re-simulate on the product into a
   genuine failure at (cycle_b, cycle_a). *)
let test_mirror_symmetric () =
  let golden = Lazy.force Test_matrix.golden_tbl in
  let strict = ref 0 in
  List.iter
    (fun name ->
      let { Designs.Entry.design; iface; rec_bound; _ } = Designs.Registry.find name in
      assert (not (Iface.is_variable_latency iface));
      let prod d =
        Rtl.product
          (Rtl.rename ~prefix:Checks.copy1_prefix d)
          (Rtl.rename ~prefix:Checks.copy2_prefix d)
      in
      List.iter
        (fun (m, d) ->
          let cell = Printf.sprintf "%s %s" name m.Mutation.id in
          match Hashtbl.find_opt golden (name, m.Mutation.id) with
          | Some v when String.starts_with ~prefix:"detected@" v -> (
              match (Checks.gqed d iface ~bound:rec_bound).Checks.verdict with
              | Checks.Fail f ->
                  let a = f.Checks.cycle_a and b = f.Checks.cycle_b in
                  if a > b then Alcotest.failf "%s: cycle_a %d > cycle_b %d" cell a b;
                  if a < b then incr strict;
                  let w = f.Checks.witness in
                  let w_initial = swap_copies w.Bmc.w_initial in
                  let w_inputs = Array.map swap_copies w.Bmc.w_inputs in
                  let w_trace = Rtl.simulate_from (prod d) w_initial (Array.to_list w_inputs) in
                  let swapped =
                    {
                      f with
                      Checks.cycle_a = b;
                      cycle_b = a;
                      witness = { w with Bmc.w_initial; w_inputs; w_trace };
                    }
                  in
                  Alcotest.(check bool) (cell ^ " swapped witness genuine") true
                    (Theory.witness_is_genuine d iface swapped)
              | Checks.Pass _ | Checks.Unknown _ -> Alcotest.failf "%s: expected %s" cell v)
          | _ -> ())
        (Mutation.mutants design))
    [ "hamming74"; "graycodec"; "seqdet"; "rle"; "maxtrack"; "accum"; "popcount"; "fir4" ];
  Alcotest.(check bool) "some failure has cycle_a < cycle_b" true (!strict > 0)

let suite =
  [
    ("qed.gqed_correct_accum", `Quick, test_gqed_passes_on_correct_accum);
    ("qed.pipeline_mono_agree", `Quick, test_gqed_pipeline_agrees);
    ("qed.solver_path_switches", `Quick, test_solver_path_switches);
    ("qed.preprocess_after_trigger", `Quick, test_preprocess_after_trigger);
    ("qed.aqed_false_alarm", `Quick, test_aqed_false_alarm_on_interfering);
    ("qed.gqed_hidden_op", `Quick, test_gqed_catches_hidden_op);
    ("qed.state_conjunct_ablation", `Quick, test_state_conjunct_is_load_bearing);
    ("qed.pure_fn_correct", `Quick, test_pure_fn_correct_both_pass);
    ("qed.pure_fn_buggy", `Quick, test_pure_fn_buggy_both_fail);
    ("qed.pipeline", `Quick, test_pipeline_passes);
    ("qed.sa_dropped_response", `Quick, test_sa_catches_dropped_response);
    ("qed.bruteforce_deterministic", `Quick, test_brute_force_deterministic_correct_accum);
    ("qed.bruteforce_conflict", `Quick, test_brute_force_conflict_hidden_op);
    ("qed.soundness_completeness", `Quick, test_soundness_and_completeness);
    ("qed.stability_holds", `Quick, test_stability_holds_on_correct_accum);
    ("qed.stability_drift", `Quick, test_stability_catches_idle_drift);
    ("qed.stability_vacuous", `Quick, test_stability_vacuous_without_arch);
    ("qed.reset_check", `Quick, test_reset_check_pass_and_fail);
    ("qed.flow", `Quick, test_flow_first_failure_wins);
    ("qed.iface_validation", `Quick, test_iface_validation);
    ("qed.decomposition", `Quick, test_decomposition);
    ("qed.limits_unknown", `Quick, test_limits_produce_unknown);
    ("qed.mirror_symmetric", `Quick, test_mirror_symmetric);
  ]

type failure_kind =
  | Fc_output
  | Fc_response
  | Gfc_output
  | Gfc_response
  | Gfc_state
  | Sa_response
  | Stability
  | Reset_value

let failure_kind_to_string = function
  | Fc_output -> "fc-output"
  | Fc_response -> "fc-response"
  | Gfc_output -> "gfc-output"
  | Gfc_response -> "gfc-response"
  | Gfc_state -> "gfc-state"
  | Sa_response -> "sa-response"
  | Stability -> "stability"
  | Reset_value -> "reset-value"

type failure = {
  kind : failure_kind;
  cycle_a : int;
  cycle_b : int;
  witness : Bmc.witness;
}

type unknown = { u_reason : Sat.Solver.unknown_reason; u_bound : int }
type verdict = Pass of int | Fail of failure | Unknown of unknown

let pp_verdict ppf = function
  | Pass n -> Format.fprintf ppf "pass (bound %d)" n
  | Fail f ->
      Format.fprintf ppf "FAIL %s at dispatch cycles (%d, %d), %d-cycle counterexample"
        (failure_kind_to_string f.kind)
        f.cycle_a f.cycle_b f.witness.Bmc.w_length
  | Unknown u ->
      Format.fprintf ppf "UNKNOWN at bound %d: %s" u.u_bound
        (Sat.Solver.reason_to_string u.u_reason)

type report = {
  verdict : verdict;
  sat_stats : Sat.Solver.stats;
  cnf_vars : int;
  cnf_clauses : int;
  simp : Bmc.Engine.simp_stats;
}

let copy1_prefix = "dut1__"
let copy2_prefix = "dut2__"

(* ------------------------------------------------------------------ *)
(* Bit-vector helpers over the AIG.                                     *)

let eq_bits g a b =
  assert (Array.length a = Array.length b);
  let acc = ref Aig.true_ in
  Array.iteri (fun i ai -> acc := Aig.and_ g !acc (Aig.xnor_ g ai b.(i))) a;
  !acc

(* Unsigned less-than over AIG bit arrays (LSB-first), for the cross-frame
   counter comparisons of the variable-latency checks. *)
let ult_bits g a b =
  assert (Array.length a = Array.length b);
  let lt = ref Aig.false_ in
  Array.iteri
    (fun i ai ->
      let bi = b.(i) in
      let this_lt = Aig.and_ g (Aig.not_ ai) bi in
      let equal_here = Aig.xnor_ g ai bi in
      lt := Aig.or_ g this_lt (Aig.and_ g equal_here !lt))
    a;
  !lt

(* ------------------------------------------------------------------ *)
(* A view of one design copy's transactional signals inside an engine.  *)

type view = { engine : Bmc.Engine.t; prefix : string; iface : Iface.t }

let u view = Bmc.Engine.unroller view.engine
let g view = Bmc.Engine.graph view.engine

let valid_bit view frame =
  match view.iface.Iface.in_valid with
  | None -> Aig.true_
  | Some port -> (Bmc.Unroller.input_bits (u view) (view.prefix ^ port) ~frame).(0)

let resp_bit view frame =
  match view.iface.Iface.out_valid with
  | None -> Aig.true_
  | Some port ->
      (Bmc.Unroller.expr_bits (u view) (Expr.var (view.prefix ^ port) 1) ~frame).(0)

let operand_bits view frame =
  Array.concat
    (List.map
       (fun port -> Bmc.Unroller.input_bits (u view) (view.prefix ^ port) ~frame)
       view.iface.Iface.in_data)

let response_bits view frame =
  let design = Bmc.Unroller.design (u view) in
  Array.concat
    (List.map
       (fun port ->
         let w = Expr.width (Rtl.output_expr design (view.prefix ^ port)) in
         Bmc.Unroller.expr_bits (u view) (Expr.var (view.prefix ^ port) w) ~frame)
       view.iface.Iface.out_data)

let arch_bits view frame =
  Array.concat
    (List.map
       (fun reg -> Bmc.Unroller.reg_bits (u view) (view.prefix ^ reg) ~frame)
       view.iface.Iface.arch_regs)

(* No dispatch in the [state_latency - 1] cycles after [frame] (so the
   post-state read at [frame + state_latency] reflects only this
   transaction). Vacuously true when state_latency = 1. *)
let quiet_after view frame =
  let sl = view.iface.Iface.state_latency in
  let gr = g view in
  let rec build d acc =
    if d >= sl then acc
    else build (d + 1) (Aig.and_ gr acc (Aig.not_ (valid_bit view (frame + d))))
  in
  build 1 Aig.true_

(* ------------------------------------------------------------------ *)
(* Incremental pair-based checking.                                     *)

type pair_conds = {
  p_i : int;
  p_j : int;
  c_out : Aig.lit;
  c_resp : Aig.lit;
  c_state : Aig.lit;  (** [Aig.false_] when there is no state conjunct *)
}

let report_of engine verdict =
  let vars, clauses = Bmc.Engine.cnf_size engine in
  {
    verdict;
    sat_stats = Bmc.Engine.stats engine;
    cnf_vars = vars;
    cnf_clauses = clauses;
    simp = Bmc.Engine.simp_stats engine;
  }

(* Solve for any of the pending conditions of one selector; on SAT identify
   the failing pair in the model. On UNSAT every pending condition has been
   proven unreachable — each condition only references frames that are
   already fully constrained, and deeper unrolling never constrains earlier
   frames further, so the refutation stays valid forever. We therefore
   assert each condition's negation (strengthening future queries) and drop
   it from the pending set, which keeps every query focused on the
   conditions added since the last one. *)
let find_failure engine pending ~at ~kind =
  let gr = Bmc.Engine.graph engine in
  match !pending with
  | [] -> None
  | conds -> begin
      let bad = Aig.or_list gr (List.map snd conds) in
      match Bmc.Engine.check engine ~assumptions:[ bad ] with
      | Bmc.Engine.Unreachable ->
          List.iter (fun (_, lit) -> Bmc.Engine.assert_lit engine (Aig.not_ lit)) conds;
          pending := [];
          None
      | Bmc.Engine.Undecided reason ->
          (* Give up without touching the pending set: the conditions were
             neither refuted nor witnessed, so nothing may be asserted. *)
          Some (Unknown { u_reason = reason; u_bound = at })
      | Bmc.Engine.Cex witness ->
          let pair =
            match
              List.find_opt (fun (_, lit) -> Bmc.Engine.model_lit engine lit) conds
            with
            | Some (p, _) -> p
            | None ->
                failwith (Printf.sprintf "Checks: %s model at bound %d satisfies no pending pair"
                            (failure_kind_to_string kind) at)
          in
          Some (Fail { kind; cycle_a = pair.p_i; cycle_b = pair.p_j; witness })
    end

(* Generic driver: deepen cycle by cycle, adding the pair conditions that
   become expressible at each bound, checking output/response/state
   inconsistencies in that order (so the reported kind is the most specific
   one failing at the shortest bound). *)
let drive ~engine ~bound ~pairs_at ~kinds =
  let kind_out, kind_resp, kind_state = kinds in
  let pending_out = ref [] and pending_resp = ref [] and pending_state = ref [] in
  let stage pending select pairs =
    List.iter
      (fun p ->
        let lit = select p in
        if lit <> Aig.false_ then pending := (p, lit) :: !pending)
      pairs
  in
  let rec deepen k =
    if k > bound then report_of engine (Pass bound)
    else begin
      let new_pairs = pairs_at k in
      stage pending_out (fun p -> p.c_out) new_pairs;
      stage pending_resp (fun p -> p.c_resp) new_pairs;
      if kind_state <> None then stage pending_state (fun p -> p.c_state) new_pairs;
      match find_failure engine pending_out ~at:k ~kind:kind_out with
      | Some f -> report_of engine f
      | None -> (
          match find_failure engine pending_resp ~at:k ~kind:kind_resp with
          | Some f -> report_of engine f
          | None -> (
              match
                match kind_state with
                | None -> None
                | Some ks -> find_failure engine pending_state ~at:k ~kind:ks
              with
              | Some f -> report_of engine f
              | None -> deepen (k + 1)))
    end
  in
  deepen 1

(* ------------------------------------------------------------------ *)
(* A-QED functional consistency (single copy).                          *)

let aqed_fc_fixed ?budget design iface ~bound =
  Iface.check design iface;
  let engine = Bmc.Engine.create ?budget design in
  let view = { engine; prefix = ""; iface } in
  let gr = Bmc.Engine.graph engine in
  let latency = iface.Iface.latency in
  (* Pairs (i, j), i < j, whose response frame j + latency = k - 1. *)
  let pairs_at k =
    let j = k - 1 - latency in
    if j < 1 then []
    else
      List.init j (fun i ->
          let base =
            Aig.and_list gr
              [
                valid_bit view i;
                valid_bit view j;
                eq_bits gr (operand_bits view i) (operand_bits view j);
              ]
          in
          let ri = resp_bit view (i + latency) and rj = resp_bit view (j + latency) in
          let out_ne =
            Aig.not_ (eq_bits gr (response_bits view (i + latency)) (response_bits view (j + latency)))
          in
          {
            p_i = i;
            p_j = j;
            c_out = Aig.and_list gr [ base; ri; rj; out_ne ];
            c_resp = Aig.and_ gr base (Aig.xor_ gr ri rj);
            c_state = Aig.false_;
          })
  in
  drive ~engine ~bound ~pairs_at ~kinds:(Fc_output, Fc_response, None)

(* ------------------------------------------------------------------ *)
(* G-QED (product of two copies).                                       *)

let gqed_generic ?budget ~with_state design iface ~bound =
  Iface.check design iface;
  let copy1 = Rtl.rename ~prefix:copy1_prefix design in
  let copy2 = Rtl.rename ~prefix:copy2_prefix design in
  let prod = Rtl.product copy1 copy2 in
  let engine = Bmc.Engine.create ?budget prod in
  let v1 = { engine; prefix = copy1_prefix; iface } in
  let v2 = { engine; prefix = copy2_prefix; iface } in
  let gr = Bmc.Engine.graph engine in
  let latency = iface.Iface.latency in
  let sl = iface.Iface.state_latency in
  let horizon = max latency (if with_state && Iface.is_interfering iface then sl else 0) in
  let pair i j =
    let base =
      Aig.and_list gr
        [
          valid_bit v1 i;
          valid_bit v2 j;
          eq_bits gr (operand_bits v1 i) (operand_bits v2 j);
          eq_bits gr (arch_bits v1 i) (arch_bits v2 j);
          quiet_after v1 i;
          quiet_after v2 j;
        ]
    in
    let r1 = resp_bit v1 (i + latency) and r2 = resp_bit v2 (j + latency) in
    let out_ne =
      Aig.not_
        (eq_bits gr (response_bits v1 (i + latency)) (response_bits v2 (j + latency)))
    in
    let state_ne =
      if with_state && Iface.is_interfering iface then
        Aig.not_ (eq_bits gr (arch_bits v1 (i + sl)) (arch_bits v2 (j + sl)))
      else Aig.false_
    in
    {
      p_i = i;
      p_j = j;
      c_out = Aig.and_list gr [ base; r1; r2; out_ne ];
      c_resp = Aig.and_ gr base (Aig.xor_ gr r1 r2);
      c_state = Aig.and_ gr base state_ne;
    }
  in
  (* Pairs (i, m), i <= m, whose latest referenced frame m + horizon equals
     k - 1. Every conjunct is symmetric in the two copies, so the mirrored
     (m, i) is satisfiable exactly when (i, m) is and is never staged. *)
  let pairs_at k =
    let m = k - 1 - horizon in
    if m < 0 then [] else List.init (m + 1) (fun i -> pair i m)
  in
  drive ~engine ~bound ~pairs_at
    ~kinds:(Gfc_output, Gfc_response, if with_state then Some Gfc_state else None)

let gqed_fixed ?budget design iface ~bound =
  gqed_generic ?budget ~with_state:true design iface ~bound

let gqed_output_only_fixed ?budget design iface ~bound =
  gqed_generic ?budget ~with_state:false design iface ~bound

(* ------------------------------------------------------------------ *)
(* Single-action (responsiveness): with fixed latency L, out_valid at
   frame f must equal in_valid at frame f - L (false before reset).      *)

let sa_check_fixed ?budget design iface ~bound =
  Iface.check design iface;
  let engine = Bmc.Engine.create ?budget design in
  if iface.Iface.out_valid = None then
    (* No response-valid port: responses are combinational values sampled at
       dispatch + latency, so single-action holds by construction. *)
    report_of engine (Pass bound)
  else begin
  let view = { engine; prefix = ""; iface } in
  let gr = Bmc.Engine.graph engine in
  let latency = iface.Iface.latency in
  let pairs_at k =
    let f = k - 1 in
    let dispatched = if f >= latency then valid_bit view (f - latency) else Aig.false_ in
    let mismatch = Aig.xor_ gr (resp_bit view f) dispatched in
    [
      {
        p_i = max 0 (f - latency);
        p_j = f;
        c_out = mismatch;
        c_resp = Aig.false_;
        c_state = Aig.false_;
      };
    ]
  in
  drive ~engine ~bound ~pairs_at ~kinds:(Sa_response, Sa_response, None)
  end

(* ------------------------------------------------------------------ *)
(* Stability: without a dispatch, the architectural state cannot move.   *)

let stability_check ?budget design iface ~bound =
  Iface.check design iface;
  let engine = Bmc.Engine.create ?budget design in
  if iface.Iface.arch_regs = [] || iface.Iface.in_valid = None then
    (* No architectural state, or a transaction on every cycle: vacuous. *)
    report_of engine (Pass bound)
  else begin
    let view = { engine; prefix = ""; iface } in
    let gr = Bmc.Engine.graph engine in
    let pairs_at k =
      (* Frame f = k - 2 gets its state compared with frame f + 1 = k - 1. *)
      let f = k - 2 in
      if f < 0 then []
      else
        [
          {
            p_i = f;
            p_j = f + 1;
            c_out =
              Aig.and_ gr
                (Aig.not_ (valid_bit view f))
                (Aig.not_ (eq_bits gr (arch_bits view f) (arch_bits view (f + 1))));
            c_resp = Aig.false_;
            c_state = Aig.false_;
          };
        ]
    in
    drive ~engine ~bound ~pairs_at ~kinds:(Stability, Stability, None)
  end

(* ------------------------------------------------------------------ *)
(* Reset: documented architectural reset values match the RTL.           *)

let reset_check ?budget design iface =
  Iface.check design iface;
  (* Static check: reset values are constants in this modelling. The report
     shape is kept for uniformity; a failure carries a zero-length witness
     whose initial state shows the wrong value. *)
  let engine = Bmc.Engine.create ?budget design in
  let initial = Rtl.initial_state design in
  let mismatch =
    List.find_opt
      (fun (name, documented) ->
        match Rtl.Smap.find_opt name initial with
        | Some actual -> not (Bitvec.equal actual documented)
        | None -> true)
      iface.Iface.arch_reset
  in
  match mismatch with
  | None -> report_of engine (Pass 0)
  | Some _ ->
      let witness =
        {
          Bmc.w_length = 0;
          w_initial = initial;
          w_inputs = [||];
          w_trace = [];
        }
      in
      report_of engine (Fail { kind = Reset_value; cycle_a = 0; cycle_b = 0; witness })

(* ------------------------------------------------------------------ *)
(* Variable-latency checks (monitor instrumentation; see Instrument).     *)

let mon = Instrument.prefix
let mw = Instrument.counter_width

(* Assert that the symbolic transaction index mon__k of a copy is held
   stable between two adjacent frames. *)
let assert_k_stable engine prefix ~frame =
  if frame >= 1 then begin
    let u = Bmc.Engine.unroller engine in
    let gr = Bmc.Engine.graph engine in
    let a = Bmc.Unroller.input_bits u (prefix ^ mon ^ "k") ~frame:(frame - 1) in
    let b = Bmc.Unroller.input_bits u (prefix ^ mon ^ "k") ~frame in
    Bmc.Engine.assert_lit engine (eq_bits gr a b)
  end

(* G-FC over the distinguished transactions of two instrumented copies.
   [with_arch] adds the equal-architectural-state hypothesis (dropping it
   gives the A-QED-style check, which false-alarms on interfering designs);
   [with_state] adds the post-state conjunct. *)
let gqed_variable ?budget ~with_arch ~with_state design iface ~bound =
  Iface.check design iface;
  let instrumented = Instrument.with_monitor design iface in
  let copy1 = Rtl.rename ~prefix:copy1_prefix instrumented in
  let copy2 = Rtl.rename ~prefix:copy2_prefix instrumented in
  let prod = Rtl.product copy1 copy2 in
  let engine = Bmc.Engine.create ?budget prod in
  let v name w prefix = Expr.var (prefix ^ name) w in
  let both f = (f copy1_prefix, f copy2_prefix) in
  let have p =
    Expr.and_ (v (mon ^ "have_op") 1 p) (v (mon ^ "have_resp") 1 p)
  in
  let eq_over names width_of p1 p2 =
    Expr.conj
      (List.map
         (fun n ->
           let w = width_of n in
           Expr.eq (v n w p1) (v n w p2))
         names)
  in
  let ne_over names width_of p1 p2 =
    Expr.disj
      (List.map
         (fun n ->
           let w = width_of n in
           Expr.ne (v n w p1) (v n w p2))
         names)
  in
  let op_names = List.map (fun p -> mon ^ "op__" ^ p) iface.Iface.in_data in
  let op_width n =
    let port = String.sub n (String.length (mon ^ "op__")) (String.length n - String.length (mon ^ "op__")) in
    (Rtl.input_var design port).Expr.width
  in
  let st_names = List.map (fun r -> mon ^ "st__" ^ r) iface.Iface.arch_regs in
  let post_names = List.map (fun r -> mon ^ "post__" ^ r) iface.Iface.arch_regs in
  let arch_width n prefix_len =
    let rn = String.sub n prefix_len (String.length n - prefix_len) in
    (Rtl.reg_var design rn).Expr.width
  in
  let resp_names = List.map (fun p -> mon ^ "resp__" ^ p) iface.Iface.out_data in
  let resp_width n =
    let port = String.sub n (String.length (mon ^ "resp__")) (String.length n - String.length (mon ^ "resp__")) in
    Expr.width (Rtl.output_expr design port)
  in
  let p1, p2 = (copy1_prefix, copy2_prefix) in
  let have1, have2 = both have in
  let base =
    Expr.conj
      ([ have1; have2; eq_over op_names op_width p1 p2 ]
      @
      if with_arch then
        [ eq_over st_names (fun n -> arch_width n (String.length (mon ^ "st__"))) p1 p2 ]
      else [])
  in
  let resp_ne = ne_over resp_names resp_width p1 p2 in
  let post_ne =
    if with_state && iface.Iface.arch_regs <> [] then
      ne_over post_names (fun n -> arch_width n (String.length (mon ^ "post__"))) p1 p2
    else Expr.bool_ false
  in
  let c_out_expr = Expr.and_ base resp_ne in
  let c_state_expr = Expr.and_ base post_ne in
  let u = Bmc.Engine.unroller engine in
  let pairs_at k =
    let f = k - 1 in
    assert_k_stable engine copy1_prefix ~frame:f;
    assert_k_stable engine copy2_prefix ~frame:f;
    if f < 2 then []
    else
      [
        {
          p_i = f;
          p_j = f;
          c_out = (Bmc.Unroller.expr_bits u c_out_expr ~frame:f).(0);
          c_resp = Aig.false_;
          c_state =
            (if with_state && iface.Iface.arch_regs <> [] then
               (Bmc.Unroller.expr_bits u c_state_expr ~frame:f).(0)
             else Aig.false_);
        };
      ]
  in
  drive ~engine ~bound ~pairs_at
    ~kinds:
      ( (if with_arch then Gfc_output else Fc_output),
        (if with_arch then Gfc_response else Fc_response),
        if with_state then Some Gfc_state else None )

(* Responsiveness for variable latency: no response when nothing is
   outstanding, and every dispatch is answered within max_latency. *)
let sa_variable ?budget design iface ~bound =
  Iface.check design iface;
  let lmax = Option.get iface.Iface.max_latency in
  let instrumented = Instrument.with_monitor design iface in
  let engine = Bmc.Engine.create ?budget instrumented in
  let u = Bmc.Engine.unroller engine in
  let gr = Bmc.Engine.graph engine in
  let dispatch_e = Instrument.dispatch_expr design iface in
  let response_e = Instrument.response_expr iface in
  let dcnt = Expr.var (mon ^ "dcnt") mw in
  let rcnt = Expr.var (mon ^ "rcnt") mw in
  let pairs_at k =
    assert_k_stable engine "" ~frame:(k - 1);
    let conds = ref [] in
    (* Spurious response at frame k-1. *)
    let f = k - 1 in
    let spurious =
      (Bmc.Unroller.expr_bits u
         (Expr.and_ response_e (Expr.ule dcnt rcnt))
         ~frame:f).(0)
    in
    conds :=
      { p_i = f; p_j = f; c_out = spurious; c_resp = Aig.false_; c_state = Aig.false_ }
      :: !conds;
    (* Overdue response: dispatch at f0 not answered by f0 + lmax. *)
    let f0 = k - 2 - lmax in
    if f0 >= 0 then begin
      let disp = (Bmc.Unroller.expr_bits u dispatch_e ~frame:f0).(0) in
      let dcnt_next = Bmc.Unroller.expr_bits u dcnt ~frame:(f0 + 1) in
      let rcnt_end = Bmc.Unroller.expr_bits u rcnt ~frame:(f0 + lmax + 1) in
      let overdue = Aig.and_ gr disp (ult_bits gr rcnt_end dcnt_next) in
      conds :=
        {
          p_i = f0;
          p_j = f0 + lmax;
          c_out = overdue;
          c_resp = Aig.false_;
          c_state = Aig.false_;
        }
        :: !conds
    end;
    !conds
  in
  drive ~engine ~bound ~pairs_at ~kinds:(Sa_response, Sa_response, None)

(* ------------------------------------------------------------------ *)
(* Public checks: dispatch on the interface's latency mode.              *)

let aqed_fc ?budget design iface ~bound =
  if Iface.is_variable_latency iface then
    gqed_variable ?budget ~with_arch:false ~with_state:false design iface ~bound
  else aqed_fc_fixed ?budget design iface ~bound

let gqed ?budget design iface ~bound =
  if Iface.is_variable_latency iface then
    gqed_variable ?budget ~with_arch:true ~with_state:true design iface ~bound
  else gqed_fixed ?budget design iface ~bound

let gqed_output_only ?budget design iface ~bound =
  if Iface.is_variable_latency iface then
    gqed_variable ?budget ~with_arch:true ~with_state:false design iface ~bound
  else gqed_output_only_fixed ?budget design iface ~bound

let sa_check ?budget design iface ~bound =
  if Iface.is_variable_latency iface then
    sa_variable ?budget design iface ~bound
  else sa_check_fixed ?budget design iface ~bound

(* ------------------------------------------------------------------ *)
(* The complete flow.                                                    *)

let flow ?budget design iface ~bound =
  let later_stages =
    [ (fun () -> sa_check ?budget design iface ~bound) ]
    @ (if Iface.is_variable_latency iface then []
       else [ (fun () -> stability_check ?budget design iface ~bound) ])
    @ [ (fun () -> gqed ?budget design iface ~bound) ]
  in
  (* An undecided stage blocks the flow just like a failing one: the later
     stages' soundness preconditions were not discharged. *)
  let rec run_stages report = function
    | [] -> report
    | stage :: rest -> (
        match report.verdict with
        | Fail _ | Unknown _ -> report
        | Pass _ -> run_stages (stage ()) rest)
  in
  run_stages (reset_check ?budget design iface) later_stages

(* ------------------------------------------------------------------ *)

type technique = Aqed | Gqed | Gqed_output_only | Gqed_flow | Sa | Stability

let technique_to_string = function
  | Aqed -> "A-QED"
  | Gqed -> "G-QED"
  | Gqed_output_only -> "G-QED(out-only)"
  | Gqed_flow -> "G-QED(flow)"
  | Sa -> "SA"
  | Stability -> "stability"

let verdict_arg = function
  | Pass _ -> "pass"
  | Fail _ -> "fail"
  | Unknown _ -> "unknown"

(* Structural digest (Marshal + MD5, hex) of plain data. Journals written
   by earlier releases hold keys built from exactly these bytes, so the
   encoding must not change or [--resume] would re-run every cell. *)
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* The canonical task identity of the on-disk campaign journal: the
   technique, the bound, and structural digests of the design and
   interface. [budget] is deliberately excluded: it can only turn a
   verdict into [Unknown], which a resume re-runs, and the solving path
   and the formula encoding are verdict-preserving (the repo's core
   invariant), so a decided verdict answers the query under any budget. *)
let campaign_key technique design iface ~bound =
  Printf.sprintf "%s/%d/%s/%s" (technique_to_string technique) bound (digest design)
    (digest iface)

(* Cold-start hardness estimate for campaign scheduling: unrolled problem
   size, bound × (state + inputs + nodes). Once a cell has been solved
   the journaled wall-clock time supersedes this. *)
let campaign_hint design ~bound =
  let state_bits, input_bits, nodes = Rtl.stats design in
  float_of_int bound *. float_of_int (state_bits + input_bits + nodes)

let run ?budget technique design iface ~bound =
  let solve () =
    match technique with
    | Aqed -> aqed_fc ?budget design iface ~bound
    | Gqed -> gqed ?budget design iface ~bound
    | Gqed_output_only -> gqed_output_only ?budget design iface ~bound
    | Gqed_flow -> flow ?budget design iface ~bound
    | Sa -> sa_check ?budget design iface ~bound
    | Stability -> stability_check ?budget design iface ~bound
  in
  if not (Obs.on ()) then solve ()
  else begin
    Obs.Trace.span_begin "qed.check"
      ~args:
        [
          ("technique", technique_to_string technique);
          ("design", design.Rtl.name);
        ];
    match solve () with
    | report ->
        Obs.Trace.span_end "qed.check" ~args:[ ("verdict", verdict_arg report.verdict) ];
        report
    | exception e ->
        Obs.Trace.span_end "qed.check" ~args:[ ("verdict", "exception") ];
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Journal payloads (lib/persist campaigns).                            *)

(* Versioned *outside* the Marshal blob: Marshal carries no type
   information, so a blob written under an older [report] layout would
   otherwise decode into garbage silently. Bump the tag whenever [report]
   (or any type it reaches) changes shape; stale records then decode to
   [None] and the task simply re-runs — schema drift degrades to re-work,
   never to a wrong verdict. *)
let report_schema_tag = "gqed-report/7:"

let encode_report (r : report) = report_schema_tag ^ Marshal.to_string r []

let decode_report s =
  let tag_len = String.length report_schema_tag in
  if String.length s < tag_len || String.sub s 0 tag_len <> report_schema_tag then None
  else
    match (Marshal.from_string s tag_len : report) with
    | r -> Some r
    | exception _ -> None

let report_decided (r : report) =
  match r.verdict with Pass _ | Fail _ -> true | Unknown _ -> false

module Unroller = struct
  type t = {
    graph : Aig.t;
    design : Rtl.design;
    symbolic_init : bool;
    inputs : (string * int, Aig.lit array) Hashtbl.t; (* (port, frame) *)
    regs : (string * int, Aig.lit array) Hashtbl.t;
    mutable max_frame : int;
  }

  let create ?(symbolic_init = false) graph design =
    {
      graph;
      design;
      symbolic_init;
      inputs = Hashtbl.create 64;
      regs = Hashtbl.create 64;
      max_frame = -1;
    }

  let design t = t.design
  let max_frame t = t.max_frame

  let touch t frame = if frame > t.max_frame then t.max_frame <- frame

  let input_bits t name ~frame =
    if frame < 0 then invalid_arg "Bmc.Unroller.input_bits: negative frame";
    touch t frame;
    match Hashtbl.find_opt t.inputs (name, frame) with
    | Some bits -> bits
    | None ->
        let v = Rtl.input_var t.design name in
        let bits = Array.init v.Expr.width (fun _ -> Aig.fresh_input t.graph) in
        Hashtbl.add t.inputs (name, frame) bits;
        bits

  (* Blast an expression in the scope of a frame. Output names resolve to
     their defining expressions so properties can mention them. *)
  let rec expr_bits t e ~frame =
    let env (v : Expr.var) =
      let name = v.Expr.name in
      if List.exists (fun (i : Expr.var) -> i.Expr.name = name) t.design.Rtl.inputs
      then input_bits t name ~frame
      else if List.exists (fun (r : Rtl.reg) -> r.Rtl.reg.Expr.name = name)
                t.design.Rtl.registers
      then reg_bits t name ~frame
      else
        match List.assoc_opt name t.design.Rtl.outputs with
        | Some oe ->
            if Expr.width oe <> v.Expr.width then
              invalid_arg
                (Printf.sprintf "Bmc: output %s used at width %d, defined at %d" name
                   v.Expr.width (Expr.width oe))
            else expr_bits t oe ~frame
        | None ->
            invalid_arg (Printf.sprintf "Bmc: unknown variable %s in property" name)
    in
    touch t frame;
    Expr.blast t.graph env e

  and reg_bits t name ~frame =
    if frame < 0 then invalid_arg "Bmc.Unroller.reg_bits: negative frame";
    touch t frame;
    match Hashtbl.find_opt t.regs (name, frame) with
    | Some bits -> bits
    | None ->
        let r =
          match
            List.find_opt
              (fun (r : Rtl.reg) -> r.Rtl.reg.Expr.name = name)
              t.design.Rtl.registers
          with
          | Some r -> r
          | None -> invalid_arg (Printf.sprintf "Bmc: unknown register %s" name)
        in
        let bits =
          if frame = 0 then
            if t.symbolic_init then
              Array.init r.Rtl.reg.Expr.width (fun _ -> Aig.fresh_input t.graph)
            else
              Array.init r.Rtl.reg.Expr.width (fun i ->
                  Aig.of_bool (Bitvec.bit r.Rtl.init i))
          else expr_bits t r.Rtl.next ~frame:(frame - 1)
        in
        Hashtbl.add t.regs (name, frame) bits;
        bits

  (* Input bits allocated for (port, frame), if that port was ever read at
     that frame. O(1); used by witness extraction for every port of every
     frame, so it must not enumerate the table. *)
  let find_input t name ~frame = Hashtbl.find_opt t.inputs (name, frame)
end

type witness = {
  w_length : int;
  w_initial : Rtl.valuation;
  w_inputs : Rtl.valuation array;
  w_trace : Rtl.trace_step list;
}

let pp_witness ppf w =
  Format.fprintf ppf "counterexample of %d cycle(s):@." w.w_length;
  Rtl.pp_trace ppf w.w_trace

exception Certification_failed of string

type simplify_config = {
  sc_coi : bool;
  sc_rewrite : bool;
  sc_pg : bool;
  sc_cnf : bool;
}

let default_simplify = { sc_coi = true; sc_rewrite = true; sc_pg = true; sc_cnf = true }
let no_simplify = { sc_coi = false; sc_rewrite = false; sc_pg = false; sc_cnf = false }

type limits = {
  l_budget : Sat.Solver.budget;
  l_cancel : Sat.Solver.cancel option;
  l_seed : int option;
  l_fault : (Sat.Solver.stats -> Sat.Solver.fault option) option;
  l_portfolio : Sat.Portfolio.config option;
}

let no_limits =
  {
    l_budget = Sat.Solver.no_budget;
    l_cancel = None;
    l_seed = None;
    l_fault = None;
    l_portfolio = None;
  }

let limits ?(budget = Sat.Solver.no_budget) ?cancel ?seed ?fault ?portfolio () =
  {
    l_budget = budget;
    l_cancel = cancel;
    l_seed = seed;
    l_fault = fault;
    l_portfolio = portfolio;
  }

module Coi = struct
  module S = Set.Make (String)

  type stats = {
    coi_regs_before : int;
    coi_regs_after : int;
    coi_outputs_before : int;
    coi_outputs_after : int;
  }

  let no_reduction (design : Rtl.design) =
    let nr = List.length design.Rtl.registers
    and no = List.length design.Rtl.outputs in
    { coi_regs_before = nr; coi_regs_after = nr; coi_outputs_before = no; coi_outputs_after = no }

  (* Name-level cone fixpoint: a register is in the cone when its name is
     (transitively) reachable from the property expressions through
     next-state functions and output definitions. Inputs are always kept,
     so input indices — and hence witness input valuations — are unchanged
     by the reduction. *)
  let reduce (design : Rtl.design) ~props =
    let reg_next =
      List.map (fun (r : Rtl.reg) -> (r.Rtl.reg.Expr.name, r.Rtl.next)) design.Rtl.registers
    in
    let need = ref S.empty in
    let frontier = ref [] in
    let demand name =
      if not (S.mem name !need) then begin
        need := S.add name !need;
        frontier := name :: !frontier
      end
    in
    let demand_expr e = List.iter (fun (v : Expr.var) -> demand v.Expr.name) (Expr.vars e) in
    List.iter demand_expr props;
    while !frontier <> [] do
      let name = List.hd !frontier in
      frontier := List.tl !frontier;
      match List.assoc_opt name reg_next with
      | Some next -> demand_expr next
      | None -> (
          match List.assoc_opt name design.Rtl.outputs with
          | Some e -> demand_expr e
          | None -> () (* input: no support *))
    done;
    let keep = !need in
    let registers =
      List.filter (fun (r : Rtl.reg) -> S.mem r.Rtl.reg.Expr.name keep) design.Rtl.registers
    in
    let outputs = List.filter (fun (name, _) -> S.mem name keep) design.Rtl.outputs in
    let stats =
      {
        coi_regs_before = List.length design.Rtl.registers;
        coi_regs_after = List.length registers;
        coi_outputs_before = List.length design.Rtl.outputs;
        coi_outputs_after = List.length outputs;
      }
    in
    if
      List.length registers = List.length design.Rtl.registers
      && List.length outputs = List.length design.Rtl.outputs
    then (design, stats)
    else
      match
        Rtl.validate ~name:design.Rtl.name ~inputs:design.Rtl.inputs ~registers ~outputs
      with
      | Ok () ->
          (Rtl.make ~name:design.Rtl.name ~inputs:design.Rtl.inputs ~registers ~outputs, stats)
      | Error _ -> (design, no_reduction design)
end

module Engine = struct
  type simp_stats = {
    ss_queries : int;
    ss_coi_regs_before : int;
    ss_coi_regs_after : int;
    ss_rewrite_hits : int;
    ss_compact_in : int;
    ss_compact_out : int;
    ss_clauses_emitted : int;
    ss_clauses_plain : int;
    ss_single_pol : int;
    ss_pre : Sat.Solver.presult;
    ss_t_rewrite : float;
    ss_t_cnf : float;
  }

  let pp_simp_stats ppf s =
    Format.fprintf ppf
      "queries=%d coi-regs=%d->%d rewrites=%d compact=%d->%d clauses=%d (plain %d, 1-pol \
       nodes %d) pre: sub=%d str=%d elim=%d units=%d (%d->%d clauses)"
      s.ss_queries s.ss_coi_regs_before s.ss_coi_regs_after s.ss_rewrite_hits s.ss_compact_in
      s.ss_compact_out s.ss_clauses_emitted s.ss_clauses_plain s.ss_single_pol
      s.ss_pre.Sat.Solver.pre_subsumed s.ss_pre.Sat.Solver.pre_strengthened
      s.ss_pre.Sat.Solver.pre_eliminated s.ss_pre.Sat.Solver.pre_units
      s.ss_pre.Sat.Solver.pre_clauses_before s.ss_pre.Sat.Solver.pre_clauses_after

  let add_presult (a : Sat.Solver.presult) (b : Sat.Solver.presult) =
    Sat.Solver.
      {
        pre_clauses_before = a.pre_clauses_before + b.pre_clauses_before;
        pre_clauses_after = a.pre_clauses_after + b.pre_clauses_after;
        pre_subsumed = a.pre_subsumed + b.pre_subsumed;
        pre_strengthened = a.pre_strengthened + b.pre_strengthened;
        pre_eliminated = a.pre_eliminated + b.pre_eliminated;
        pre_resolvents = a.pre_resolvents + b.pre_resolvents;
        pre_units = a.pre_units + b.pre_units;
      }

  let zero_presult =
    Sat.Solver.
      {
        pre_clauses_before = 0;
        pre_clauses_after = 0;
        pre_subsumed = 0;
        pre_strengthened = 0;
        pre_eliminated = 0;
        pre_resolvents = 0;
        pre_units = 0;
      }

  let zero_sat_stats =
    Sat.Solver.
      {
        conflicts = 0;
        decisions = 0;
        propagations = 0;
        restarts = 0;
        learnt_clauses = 0;
        clauses = 0;
        vars = 0;
        clauses_exported = 0;
        clauses_imported = 0;
      }

  type check_result =
    | Cex of witness
    | Unreachable
    | Undecided of Sat.Solver.unknown_reason

  type t = {
    graph : Aig.t;
    design : Rtl.design;
    unroller : Unroller.t;
    simplify : simplify_config;
    mono : bool;
    symbolic_init : bool;
    certify : bool;
    limits : limits;
    mutable solver : Sat.Solver.t;
    mutable emitter : Aig.Cnf.emitter;
    mutable map : (Aig.lit -> Aig.lit option) option;
        (* literal translation into the current compacted graph; [None] when
           the emitter works on [graph] directly *)
    mutable pending : Aig.lit list; (* mono: permanent asserts, newest first *)
    mutable certified_unsats : int;
    (* Portfolio accounting: counters of retired worker solvers (the live
       master solver never sees worker conflicts), plus the derived clauses
       of the last portfolio query so certification replay keeps working. *)
    mutable sat_acc : Sat.Solver.stats;
    mutable last_derived : Sat.Drat.proof;
    (* Pipeline accounting. The [*_acc] fields collect stats of solvers and
       emitters retired by mono-mode resets; [simp_stats] adds the live ones. *)
    mutable queries : int;
    mutable coi_before : int;
    mutable coi_after : int;
    mutable rewrite_acc : int;
    mutable compact_in : int;
    mutable compact_out : int;
    mutable emitted_acc : int;
    mutable plain_acc : int;
    mutable single_acc : int;
    mutable pre_acc : Sat.Solver.presult;
    mutable t_rewrite : float;
    mutable t_cnf : float;
  }

  let create ?(symbolic_init = false) ?(certify = false) ?(simplify = default_simplify)
      ?(mono = false) ?(limits = no_limits) design =
    let graph = Aig.create ~rewrite:simplify.sc_rewrite () in
    let unroller = Unroller.create ~symbolic_init graph design in
    let solver = Sat.Solver.create () in
    if certify then Sat.Solver.start_proof solver;
    Sat.Solver.set_fault_hook solver limits.l_fault;
    let emitter = Aig.Cnf.make ~pg:simplify.sc_pg graph solver in
    {
      graph;
      design;
      unroller;
      simplify;
      mono;
      symbolic_init;
      certify;
      limits;
      solver;
      emitter;
      map = None;
      pending = [];
      certified_unsats = 0;
      sat_acc = zero_sat_stats;
      last_derived = [];
      queries = 0;
      coi_before = List.length design.Rtl.registers;
      coi_after = List.length design.Rtl.registers;
      rewrite_acc = 0;
      compact_in = 0;
      compact_out = 0;
      emitted_acc = 0;
      plain_acc = 0;
      single_acc = 0;
      pre_acc = zero_presult;
      t_rewrite = 0.;
      t_cnf = 0.;
    }

  let unroller t = t.unroller
  let graph t = t.graph
  let solver t = t.solver
  let note_coi t ~before ~after =
    t.coi_before <- before;
    t.coi_after <- after

  let map_lit t l = match t.map with None -> Some l | Some f -> f l

  let assert_lit t l =
    if t.mono then t.pending <- l :: t.pending else Aig.Cnf.assert_lit t.emitter l

  (* Mono mode: every query gets a fresh solver over exactly the cones it
     needs. Retire the outgoing solver/emitter into the accumulators, then —
     when rewriting is on — sweep the persistent graph down to the cones of
     the roots (re-running the rewrite rules over them) and emit from the
     compacted copy. *)
  let reset_query t ~roots =
    let st = Aig.Cnf.stats t.emitter in
    t.emitted_acc <- t.emitted_acc + st.Aig.Cnf.cnf_clauses;
    t.plain_acc <- t.plain_acc + st.Aig.Cnf.cnf_clauses_plain;
    t.single_acc <- t.single_acc + st.Aig.Cnf.cnf_single_pol;
    t.pre_acc <- add_presult t.pre_acc (Sat.Solver.preprocess_totals t.solver);
    let solver = Sat.Solver.create () in
    if t.certify then Sat.Solver.start_proof solver;
    (* Fresh solvers inherit the engine's governance: budget/cancel arrive
       per [solve] call, the fault hook is installed on the instance. *)
    Sat.Solver.set_fault_hook solver t.limits.l_fault;
    t.solver <- solver;
    if t.simplify.sc_rewrite then begin
      let t0 = Sys.time () in
      if Obs.on () then
        Obs.Trace.span_begin "bmc.rewrite"
          ~args:[ ("ands", string_of_int (Aig.num_ands t.graph)) ];
      t.compact_in <- t.compact_in + Aig.num_ands t.graph;
      let h, map = Aig.compact t.graph ~roots in
      t.compact_out <- t.compact_out + Aig.num_ands h;
      t.rewrite_acc <- t.rewrite_acc + Aig.num_rewrites h;
      t.t_rewrite <- t.t_rewrite +. (Sys.time () -. t0);
      if Obs.on () then
        Obs.Trace.span_end "bmc.rewrite" ~args:[ ("ands", string_of_int (Aig.num_ands h)) ];
      t.map <- Some map;
      t.emitter <- Aig.Cnf.make ~pg:t.simplify.sc_pg h solver
    end
    else begin
      t.map <- None;
      t.emitter <- Aig.Cnf.make ~pg:t.simplify.sc_pg t.graph solver
    end

  (* Value of an AIG literal (of the persistent graph) in the SAT model.
     Bits whose node never reached the solver — outside the compacted cone,
     or never emitted — are unconstrained; default them to false. *)
  let model_bit t l =
    if l = Aig.true_ then true
    else if l = Aig.false_ then false
    else
      match map_lit t l with
      | None -> false
      | Some l' ->
          if l' = Aig.true_ then true
          else if l' = Aig.false_ then false
          else (
            match Aig.Cnf.lookup_lit t.emitter l' with
            | None -> false
            | Some sat_lit -> (
                try Sat.Solver.value t.solver sat_lit with Failure _ -> false))

  let bits_value t bits =
    let n = Array.length bits in
    let v = ref 0 in
    for i = 0 to n - 1 do
      if model_bit t bits.(i) then v := !v lor (1 lsl i)
    done;
    Bitvec.make ~width:n !v

  let extract_witness t =
    let design = t.design in
    let frames = Unroller.max_frame t.unroller + 1 in
    (* Input valuation per frame: read allocated bits from the model and
       fill unallocated ports with zeros (they are don't-cares). The lookup
       is a hashtable hit per (port, frame) — previously this rebuilt the
       full allocation assoc list for every port of every frame, which was
       quadratic in the number of allocated input vectors. *)
    let inputs =
      Array.init frames (fun frame ->
          List.fold_left
            (fun m (v : Expr.var) ->
              let bits =
                match Unroller.find_input t.unroller v.Expr.name ~frame with
                | Some bits -> bits_value t bits
                | None -> Bitvec.zero v.Expr.width
              in
              Rtl.Smap.add v.Expr.name bits m)
            Rtl.Smap.empty design.Rtl.inputs)
    in
    let initial =
      if t.symbolic_init then
        List.fold_left
          (fun m (r : Rtl.reg) ->
            let name = r.Rtl.reg.Expr.name in
            let bits = Unroller.reg_bits t.unroller name ~frame:0 in
            Rtl.Smap.add name (bits_value t bits) m)
          Rtl.Smap.empty design.Rtl.registers
      else Rtl.initial_state design
    in
    let trace = Rtl.simulate_from design initial (Array.to_list inputs) in
    { w_length = frames; w_initial = initial; w_inputs = inputs; w_trace = trace }

  let model_lit = model_bit

  (* Replay the solver's DRAT stream through the independent checker. Only
     meaningful right after an UNSAT answer to a query with exactly these
     SAT-level assumptions. When the last query ran a portfolio, the
     winning refutation lives in the workers' merged derived clauses —
     appended after the master's own stream (sound: derived clauses are
     RUP-monotone, see lib/sat/PORTFOLIO.md). *)
  let certify_unsat_sat_lits t sat_assumptions =
    Sat.Drat.check ~assumptions:sat_assumptions
      (Sat.Solver.proof t.solver @ t.last_derived)

  let mapped t l =
    match map_lit t l with
    | Some l' -> l'
    | None -> invalid_arg "Bmc.Engine: literal outside the compacted cone"

  let certify_unsat t ~assumptions =
    (* The cones of the assumption literals were emitted by the query that
       answered UNSAT, so [assume_lit] is a memoized lookup here and adds no
       clauses. *)
    let sat_assumptions =
      List.map (fun l -> Aig.Cnf.assume_lit t.emitter (mapped t l)) assumptions
    in
    certify_unsat_sat_lits t sat_assumptions

  let check t ~assumptions =
    t.queries <- t.queries + 1;
    if Obs.on () then
      Obs.Trace.span_begin "bmc.query"
        ~args:
          [
            ("query", string_of_int t.queries);
            ("frames", string_of_int (Unroller.max_frame t.unroller + 1));
          ];
    if t.mono then begin
      reset_query t ~roots:(assumptions @ t.pending);
      List.iter
        (fun l -> Aig.Cnf.assert_lit t.emitter (mapped t l))
        (List.rev t.pending)
    end;
    let sat_assumptions =
      List.map (fun l -> Aig.Cnf.assume_lit t.emitter (mapped t l)) assumptions
    in
    if t.simplify.sc_cnf then begin
      let t0 = Sys.time () in
      (* BVE only for one-shot (mono) queries: it is merely satisfiability-
         preserving, and incremental engines keep adding clauses over
         existing variables. *)
      ignore (Sat.Solver.preprocess ~elim:t.mono ~frozen:sat_assumptions t.solver);
      t.t_cnf <- t.t_cnf +. (Sys.time () -. t0)
    end;
    let result =
      match t.limits.l_portfolio with
      | Some pc when pc.Sat.Portfolio.p_workers > 1 ->
          (* Race diversified workers on a snapshot of the master's clause
             set. The master solver itself does not search: a Sat winner
             injects its model back (witness extraction reads the master),
             an Unsat winner leaves its refutation in [o_derived]. *)
          let o =
            Sat.Portfolio.solve ~assumptions:sat_assumptions
              ~budget:t.limits.l_budget ?cancel:t.limits.l_cancel
              ?seed:t.limits.l_seed ~config:pc t.solver
          in
          t.last_derived <- o.Sat.Portfolio.o_derived;
          let s = o.Sat.Portfolio.o_stats and a = t.sat_acc in
          t.sat_acc <-
            Sat.Solver.
              {
                a with
                conflicts = a.conflicts + s.conflicts;
                decisions = a.decisions + s.decisions;
                propagations = a.propagations + s.propagations;
                restarts = a.restarts + s.restarts;
                clauses_exported = a.clauses_exported + o.Sat.Portfolio.o_exported;
                clauses_imported = a.clauses_imported + o.Sat.Portfolio.o_imported;
              };
          o.Sat.Portfolio.o_result
      | _ ->
          t.last_derived <- [];
          Sat.Solver.solve ~assumptions:sat_assumptions ~budget:t.limits.l_budget
            ?cancel:t.limits.l_cancel ?seed:t.limits.l_seed t.solver
    in
    let finish_span verdict =
      if Obs.on () then begin
        Obs.Trace.span_end "bmc.query" ~args:[ ("verdict", verdict) ];
        Obs.Metrics.add (Obs.Metrics.counter "bmc.queries") 1;
        Obs.Metrics.add (Obs.Metrics.counter ("bmc.verdict." ^ verdict)) 1;
        Obs.Metrics.set
          (Obs.Metrics.gauge "bmc.frames")
          (float_of_int (Unroller.max_frame t.unroller + 1))
      end
    in
    match result with
    | Sat.Solver.Sat ->
        finish_span "cex";
        Cex (extract_witness t)
    | Sat.Solver.Unsat ->
        if t.certify then begin
          match certify_unsat_sat_lits t sat_assumptions with
          | Ok () -> t.certified_unsats <- t.certified_unsats + 1
          | Error msg ->
              finish_span "certification-failed";
              raise (Certification_failed msg)
        end;
        finish_span "unreachable";
        Unreachable
    | Sat.Solver.Unknown reason ->
        (* No verdict: nothing to certify or extract. The solver backed out
           to level 0, so the engine stays usable for a retry. *)
        finish_span "undecided";
        Undecided reason

  let certified_unsats t = t.certified_unsats

  (* Live master-solver stats plus the counters of retired portfolio
     workers; gauges (vars/clauses/learnts) stay the master's. *)
  let stats t =
    let live = Sat.Solver.stats t.solver and a = t.sat_acc in
    Sat.Solver.
      {
        live with
        conflicts = live.conflicts + a.conflicts;
        decisions = live.decisions + a.decisions;
        propagations = live.propagations + a.propagations;
        restarts = live.restarts + a.restarts;
        clauses_exported = live.clauses_exported + a.clauses_exported;
        clauses_imported = live.clauses_imported + a.clauses_imported;
      }

  let cnf_size t =
    let st = Sat.Solver.stats t.solver in
    (st.Sat.Solver.vars, st.Sat.Solver.clauses)

  let simp_stats t =
    let st = Aig.Cnf.stats t.emitter in
    {
      ss_queries = t.queries;
      ss_coi_regs_before = t.coi_before;
      ss_coi_regs_after = t.coi_after;
      ss_rewrite_hits = Aig.num_rewrites t.graph + t.rewrite_acc;
      ss_compact_in = t.compact_in;
      ss_compact_out = t.compact_out;
      ss_clauses_emitted = t.emitted_acc + st.Aig.Cnf.cnf_clauses;
      ss_clauses_plain = t.plain_acc + st.Aig.Cnf.cnf_clauses_plain;
      ss_single_pol = t.single_acc + st.Aig.Cnf.cnf_single_pol;
      ss_pre = add_presult t.pre_acc (Sat.Solver.preprocess_totals t.solver);
      ss_t_rewrite = t.t_rewrite;
      ss_t_cnf = t.t_cnf;
    }
end

type unknown_info = { un_reason : Sat.Solver.unknown_reason; un_bound : int }
type outcome = Holds of int | Violated of witness | Unknown of unknown_info

(* The "bad at frame k" literal: the invariant's negation at that frame.
   Per-frame assumptions are asserted permanently by the caller. *)
let bad_at engine ~invariant k =
  let u = Engine.unroller engine in
  Aig.not_ (Unroller.expr_bits u invariant ~frame:k).(0)

let assert_assumes engine ~assumes k =
  let u = Engine.unroller engine in
  List.iter
    (fun a ->
      let bit = (Unroller.expr_bits u a ~frame:k).(0) in
      Engine.assert_lit engine bit)
    assumes

(* Re-anchor a witness found on a COI-reduced design to the original one:
   inputs carry over verbatim (the reduction keeps every input), registers
   outside the cone take their reset value (or zero under symbolic init —
   they cannot influence the property), and the trace is re-simulated on
   the original design so the waveform shows every register. *)
let reconstruct_witness ~original ~symbolic_init w =
  let base =
    if symbolic_init then
      List.fold_left
        (fun m (r : Rtl.reg) ->
          Rtl.Smap.add r.Rtl.reg.Expr.name (Bitvec.zero r.Rtl.reg.Expr.width) m)
        Rtl.Smap.empty original.Rtl.registers
    else Rtl.initial_state original
  in
  let initial = Rtl.Smap.union (fun _ v _ -> Some v) w.w_initial base in
  let trace = Rtl.simulate_from original initial (Array.to_list w.w_inputs) in
  { w with w_initial = initial; w_trace = trace }

let coi_setup simplify ~design ~props =
  if simplify.sc_coi then Coi.reduce design ~props
  else (design, Coi.no_reduction design)

let check_safety ?(symbolic_init = false) ?(certify = false) ?(assumes = [])
    ?(simplify = default_simplify) ?(mono = false) ?(limits = no_limits) ?stats ~design
    ~invariant ~depth () =
  if Expr.width invariant <> 1 then
    invalid_arg "Bmc.check_safety: invariant must be 1 bit wide";
  List.iter
    (fun a ->
      if Expr.width a <> 1 then
        invalid_arg "Bmc.check_safety: assumptions must be 1 bit wide")
    assumes;
  let original = design in
  let design, coi = coi_setup simplify ~design ~props:(invariant :: assumes) in
  (* One engine for all bounds. In mono mode the design blasting (graph +
     unrolling) is still shared, but each bound's query runs on a fresh
     solver that replays the recorded assumptions and proven bounds. *)
  let engine = Engine.create ~symbolic_init ~certify ~simplify ~mono ~limits design in
  Engine.note_coi engine ~before:coi.Coi.coi_regs_before ~after:coi.Coi.coi_regs_after;
  let finish outcome =
    Option.iter (fun f -> f (Engine.simp_stats engine)) stats;
    (outcome, Engine.stats engine)
  in
  let rec deepen k =
    if k >= depth then finish (Holds depth)
    else begin
      assert_assumes engine ~assumes k;
      let bad = bad_at engine ~invariant k in
      let r =
        Obs.Trace.with_span "bmc.bound" ~args:[ ("k", string_of_int k) ] (fun () ->
            Engine.check engine ~assumptions:[ bad ])
      in
      match r with
      | Engine.Cex w ->
          let w = if design == original then w else reconstruct_witness ~original ~symbolic_init w in
          finish (Violated w)
      | Engine.Undecided reason -> finish (Unknown { un_reason = reason; un_bound = k })
      | Engine.Unreachable ->
          (* The invariant holds at cycle k: assert it to help deeper
             queries, then deepen. *)
          Engine.assert_lit engine (Aig.not_ bad);
          deepen (k + 1)
    end
  in
  deepen 0

(* ------------------------------------------------------------------ *)
(* Retry escalation.                                                   *)

module Escalate = struct
  type policy = {
    max_attempts : int;
    growth : float;
    total_seconds : float option;
    perturb : bool;
  }

  let default_policy =
    { max_attempts = 4; growth = 4.0; total_seconds = None; perturb = true }

  type attempt = {
    at_index : int;
    at_budget : Sat.Solver.budget;
    at_simplify : simplify_config;
    at_mono : bool;
    at_seed : int option;
    at_seconds : float;
    at_reason : string option;
  }

  let pp_attempt ppf a =
    let b = a.at_budget in
    let cap name to_s = Option.map (fun v -> name ^ "=" ^ to_s v) in
    let caps =
      List.filter_map Fun.id
        [
          cap "conflicts" string_of_int b.Sat.Solver.max_conflicts;
          cap "propagations" string_of_int b.Sat.Solver.max_propagations;
          cap "decisions" string_of_int b.Sat.Solver.max_decisions;
          cap "seconds" (Printf.sprintf "%.3g") b.Sat.Solver.max_seconds;
          cap "learnt-mb" (Printf.sprintf "%.3g") b.Sat.Solver.max_learnt_mb;
        ]
    in
    Format.fprintf ppf "#%d [%s]%s%s%s %.3fs: %s" a.at_index
      (if caps = [] then "unbounded" else String.concat " " caps)
      (if a.at_mono then " mono" else "")
      (if a.at_simplify = no_simplify then " no-simplify" else "")
      (match a.at_seed with None -> "" | Some s -> Printf.sprintf " seed=%d" s)
      a.at_seconds
      (match a.at_reason with None -> "decided" | Some r -> r)

  type config = { ec_limits : limits; ec_simplify : simplify_config; ec_mono : bool }

  (* Budget caps as span arguments, so an attempt span in the trace shows
     what it was allowed to spend. *)
  let budget_args (b : Sat.Solver.budget) =
    let cap name to_s v = Option.map (fun x -> (name, to_s x)) v in
    List.filter_map Fun.id
      [
        cap "conflicts" string_of_int b.Sat.Solver.max_conflicts;
        cap "propagations" string_of_int b.Sat.Solver.max_propagations;
        cap "decisions" string_of_int b.Sat.Solver.max_decisions;
        cap "seconds" (Printf.sprintf "%.3g") b.Sat.Solver.max_seconds;
        cap "learnt-mb" (Printf.sprintf "%.3g") b.Sat.Solver.max_learnt_mb;
      ]

  (* Perturbation schedule for retry [i] (i >= 1): always reseed; flip the
     incremental/monolithic lane on odd retries; toggle the simplification
     pipeline from the third retry on. All three are verdict-preserving. *)
  let perturbed ~base_simplify ~base_mono i =
    let mono = if i land 1 = 1 then not base_mono else base_mono in
    let simplify =
      if i >= 3 then if base_simplify = no_simplify then default_simplify else no_simplify
      else base_simplify
    in
    (simplify, mono)

  let run ?(policy = default_policy) ~limits ~simplify ~mono ~unknown_of f =
    let t_start = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. t_start in
    let over_total () =
      match policy.total_seconds with None -> false | Some cap -> elapsed () >= cap
    in
    let clamp_budget (b : Sat.Solver.budget) =
      match policy.total_seconds with
      | None -> b
      | Some cap ->
          let remaining = Float.max 0.01 (cap -. elapsed ()) in
          let max_seconds =
            match b.Sat.Solver.max_seconds with
            | None -> Some remaining
            | Some s -> Some (Float.min s remaining)
          in
          { b with Sat.Solver.max_seconds }
    in
    let cancelled () =
      match limits.l_cancel with Some c -> Sat.Solver.cancelled c | None -> false
    in
    let rec attempt i budget acc =
      let simplify', mono' =
        if policy.perturb && i > 0 then perturbed ~base_simplify:simplify ~base_mono:mono i
        else (simplify, mono)
      in
      let seed = if i = 0 then limits.l_seed else Some (i * 0x9e3779b1) in
      let cfg =
        {
          ec_limits = { limits with l_budget = clamp_budget budget; l_seed = seed };
          ec_simplify = simplify';
          ec_mono = mono';
        }
      in
      let t0 = Unix.gettimeofday () in
      let r =
        Obs.Trace.with_span "escalate.attempt"
          ~args:(("attempt", string_of_int i) :: budget_args cfg.ec_limits.l_budget)
          (fun () -> f cfg)
      in
      let dt = Unix.gettimeofday () -. t0 in
      let reason = unknown_of r in
      let a =
        {
          at_index = i;
          at_budget = cfg.ec_limits.l_budget;
          at_simplify = simplify';
          at_mono = mono';
          at_seed = seed;
          at_seconds = dt;
          at_reason = reason;
        }
      in
      let acc = a :: acc in
      match reason with
      | None -> (r, List.rev acc)
      | Some _ ->
          if i + 1 >= policy.max_attempts || over_total () || cancelled () then
            (r, List.rev acc)
          else attempt (i + 1) (Sat.Solver.budget_scale budget policy.growth) acc
    in
    attempt 0 limits.l_budget []

  (* Race every rung of the ladder concurrently instead of climbing it.
     Each rung keeps the budget/perturbation it would have had in the
     sequential schedule (budget scaled by growth^i), runs under its own
     cancel token (set by the race as soon as any rung decides), and the
     caller's own cancel token and fault hook are composed into the rung's
     fault hook. All perturbation knobs are verdict-preserving, so any
     decided rung is THE answer — the lowest decided index wins, which
     also makes the rule deterministic when no early cancel fires.

     Rungs never nest a portfolio inside themselves ([l_portfolio] is
     dropped): the racing ladder IS the parallelism, and nesting would
     oversubscribe cores. [Unknown] is returned only if every rung
     exhausts. *)
  let run_racing ?(policy = default_policy) ?jobs ~limits ~simplify ~mono ~unknown_of
      f =
    let n =
      let j = match jobs with Some j -> max 1 j | None -> policy.max_attempts in
      max 1 (min policy.max_attempts j)
    in
    if n = 1 then run ~policy ~limits ~simplify ~mono ~unknown_of f
    else begin
      let rung i =
        let simplify', mono' =
          if policy.perturb && i > 0 then
            perturbed ~base_simplify:simplify ~base_mono:mono i
          else (simplify, mono)
        in
        let seed = if i = 0 then limits.l_seed else Some (i * 0x9e3779b1) in
        let budget =
          if i = 0 then limits.l_budget
          else Sat.Solver.budget_scale limits.l_budget (policy.growth ** float_of_int i)
        in
        let budget =
          match policy.total_seconds with
          | None -> budget
          | Some cap ->
              let max_seconds =
                match budget.Sat.Solver.max_seconds with
                | None -> Some cap
                | Some s -> Some (Float.min s cap)
              in
              { budget with Sat.Solver.max_seconds }
        in
        (i, budget, simplify', mono', seed)
      in
      let fault =
        match limits.l_cancel with
        | None -> limits.l_fault
        | Some outer ->
            Some
              (fun st ->
                if Sat.Solver.cancelled outer then Some Sat.Solver.Fault_cancel
                else
                  match limits.l_fault with None -> None | Some g -> g st)
      in
      let run_one token (i, budget, simplify', mono', seed) =
        let cfg =
          {
            ec_limits =
              {
                l_budget = budget;
                l_cancel = Some token;
                l_seed = seed;
                l_fault = fault;
                l_portfolio = None;
              };
            ec_simplify = simplify';
            ec_mono = mono';
          }
        in
        let r =
          Obs.Trace.with_span "escalate.rung"
            ~args:(("rung", string_of_int i) :: budget_args budget)
            (fun () -> f cfg)
        in
        (i, cfg, r)
      in
      let rows =
        Par.map_governed ~jobs:n ?deadline:policy.total_seconds
          ~stop_when:(fun (_, _, r) -> unknown_of r = None)
          run_one (List.init n rung)
      in
      let attempts =
        List.filter_map
          (fun (row, dt) ->
            match row with
            | Error _ -> None
            | Ok (i, cfg, r) ->
                Some
                  {
                    at_index = i;
                    at_budget = cfg.ec_limits.l_budget;
                    at_simplify = cfg.ec_simplify;
                    at_mono = cfg.ec_mono;
                    at_seed = cfg.ec_limits.l_seed;
                    at_seconds = dt;
                    at_reason = unknown_of r;
                  })
          rows
      in
      let oks = List.filter_map (fun (row, _) -> Result.to_option row) rows in
      match List.find_opt (fun (_, _, r) -> unknown_of r = None) oks with
      | Some (_, _, r) -> (r, attempts)
      | None -> (
          match List.rev oks with
          | (_, _, r) :: _ -> (r, attempts)
          | [] -> (
              (* Every rung raised: propagate the first exception. *)
              match rows with
              | (Error e, _) :: _ -> raise e
              | _ -> assert false))
    end
end

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

  type check_result =
    | Cex of witness
    | Unreachable
    | Undecided of Sat.Solver.unknown_reason

  (* An incremental engine switches to a fresh solver per query after its
     first query whose search takes more than this many conflicts. Chosen by
     the threshold sweep in EXPERIMENTS.md §A2: lower thresholds slow the
     short counterexample queries of detection, higher ones leave hard
     proofs on the incremental solver. *)
  let fresh_after_conflicts = 500

  type t = {
    graph : Aig.t;
    design : Rtl.design;
    unroller : Unroller.t;
    simplify : simplify_config;
    mutable mono : bool; (* every query on a fresh solver; never reverts *)
    symbolic_init : bool;
    certify : bool;
    budget : Sat.Solver.budget;
    mutable solver : Sat.Solver.t;
    mutable emitter : Aig.Cnf.emitter;
    mutable map : (Aig.lit -> Aig.lit option) option;
        (* literal translation into the current compacted graph; [None] when
           the emitter works on [graph] directly *)
    mutable pending : Aig.lit list; (* every permanent assert, newest first *)
    mutable certified_unsats : int;
    (* Pipeline accounting. The [*_acc] fields collect stats of solvers and
       emitters retired by fresh-solver resets; [simp_stats] and [stats]
       add the live ones. *)
    mutable search_acc : Sat.Solver.stats;
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
  }

  let create ?(symbolic_init = false) ?(certify = false) ?(simplify = default_simplify)
      ?(mono = false) ?(budget = Sat.Solver.no_budget) design =
    let graph = Aig.create ~rewrite:simplify.sc_rewrite () in
    let unroller = Unroller.create ~symbolic_init graph design in
    let solver = Sat.Solver.create () in
    if certify then Sat.Solver.start_proof solver;
    let emitter = Aig.Cnf.make ~pg:simplify.sc_pg graph solver in
    {
      graph;
      design;
      unroller;
      simplify;
      mono;
      symbolic_init;
      certify;
      budget;
      solver;
      emitter;
      map = None;
      pending = [];
      certified_unsats = 0;
      search_acc = Sat.Solver.stats solver (* a new solver: all counters zero *);
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
    }

  let unroller t = t.unroller
  let graph t = t.graph
  let note_coi t ~before ~after =
    t.coi_before <- before;
    t.coi_after <- after

  let map_lit t l = match t.map with None -> Some l | Some f -> f l

  (* Search counters summed over [acc] and [live]; the database sizes are
     the live solver's. *)
  let add_search (acc : Sat.Solver.stats) (live : Sat.Solver.stats) =
    Sat.Solver.
      {
        live with
        conflicts = acc.conflicts + live.conflicts;
        decisions = acc.decisions + live.decisions;
        propagations = acc.propagations + live.propagations;
        restarts = acc.restarts + live.restarts;
      }

  (* Recorded for replay on fresh solvers; the live solver only takes it
     while the engine is still incremental. *)
  let assert_lit t l =
    t.pending <- l :: t.pending;
    if not t.mono then Aig.Cnf.assert_lit t.emitter l

  (* Fresh-solver queries: each gets a new solver over exactly the cones it
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
    t.search_acc <- add_search t.search_acc (Sat.Solver.stats t.solver);
    let solver = Sat.Solver.create () in
    if t.certify then Sat.Solver.start_proof solver;
    t.solver <- solver;
    if t.simplify.sc_rewrite then begin
      if Obs.on () then
        Obs.Trace.span_begin "bmc.rewrite"
          ~args:[ ("ands", string_of_int (Aig.num_ands t.graph)) ];
      t.compact_in <- t.compact_in + Aig.num_ands t.graph;
      let h, map = Aig.compact t.graph ~roots in
      t.compact_out <- t.compact_out + Aig.num_ands h;
      t.rewrite_acc <- t.rewrite_acc + Aig.num_rewrites h;
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
     SAT-level assumptions. *)
  let certify_unsat_sat_lits t sat_assumptions =
    Sat.Drat.check ~assumptions:sat_assumptions (Sat.Solver.proof t.solver)

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
    let fresh = t.mono in
    if fresh then begin
      reset_query t ~roots:(assumptions @ t.pending);
      List.iter
        (fun l -> Aig.Cnf.assert_lit t.emitter (mapped t l))
        (List.rev t.pending)
    end;
    let sat_assumptions =
      List.map (fun l -> Aig.Cnf.assume_lit t.emitter (mapped t l)) assumptions
    in
    if t.simplify.sc_cnf then
      (* BVE only on a fresh solver: it is merely satisfiability-preserving,
         and an incremental solver keeps taking clauses over existing
         variables. *)
      ignore (Sat.Solver.preprocess ~elim:fresh ~frozen:sat_assumptions t.solver);
    let conflicts0 = (Sat.Solver.stats t.solver).Sat.Solver.conflicts in
    let result =
      Sat.Solver.solve ~assumptions:sat_assumptions ~budget:t.budget t.solver
    in
    if (Sat.Solver.stats t.solver).Sat.Solver.conflicts - conflicts0 > fresh_after_conflicts
    then t.mono <- true;
    let finish_span verdict =
      if Obs.on () then begin
        Obs.Trace.span_end "bmc.query"
          ~args:
            [ ("verdict", verdict); ("solver", if fresh then "fresh" else "incremental") ];
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
           to level 0, so the engine stays usable. *)
        finish_span "undecided";
        Undecided reason

  let certified_unsats t = t.certified_unsats

  let stats t = add_search t.search_acc (Sat.Solver.stats t.solver)

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
    ?(simplify = default_simplify) ?(mono = false) ?budget ?stats ~design
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
  (* One engine for all bounds. Once it runs queries on fresh solvers, the
     design blasting (graph + unrolling) is still shared, but each bound's
     query replays the recorded assumptions and proven bounds. *)
  let engine = Engine.create ~symbolic_init ~certify ~simplify ~mono ?budget design in
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

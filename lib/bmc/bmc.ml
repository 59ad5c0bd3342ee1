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

module Engine = struct
  type simp_stats = {
    ss_queries : int;
    ss_rewrite_hits : int;
    ss_clauses_emitted : int;
    ss_clauses_plain : int;
    ss_single_pol : int;
    ss_gates : int;
    ss_pre : Sat.Solver.presult;
  }

  let pp_simp_stats ppf s =
    Format.fprintf ppf
      "queries=%d rewrites=%d clauses=%d (plain %d, 1-pol nodes %d) gates=%d pre: sub=%d \
       str=%d elim=%d units=%d (%d->%d clauses)"
      s.ss_queries s.ss_rewrite_hits s.ss_clauses_emitted s.ss_clauses_plain s.ss_single_pol
      s.ss_gates
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
    plain : bool; (* reference encoding: no rewriting, PG or preprocessing *)
    mutable mono : bool; (* every query on a fresh solver; never reverts *)
    symbolic_init : bool;
    certify : bool;
    budget : Sat.Solver.budget;
    mutable solver : Sat.Solver.t;
    mutable emitter : Aig.Cnf.emitter;
    mutable model : Aig.lit -> bool; (* reads the last SAT answer *)
    mutable pending : Aig.lit list; (* every permanent assert, newest first *)
    mutable certified_unsats : int;
    (* Pipeline accounting. The [*_acc] fields collect stats of solvers and
       emitters retired by fresh-solver resets; [simp_stats] and [stats]
       add the live ones. [pre_acc] sums every preprocessing pass. *)
    mutable search_acc : Sat.Solver.stats;
    mutable queries : int;
    mutable emitted_acc : int;
    mutable plain_acc : int;
    mutable single_acc : int;
    mutable gates_acc : int;
    mutable pre_acc : Sat.Solver.presult;
  }

  let no_model _ = false

  let create ?(symbolic_init = false) ?(certify = false) ?(plain = false) ?(mono = false)
      ?(budget = Sat.Solver.no_budget) design =
    let graph = Aig.create ~rewrite:(not plain) () in
    let unroller = Unroller.create ~symbolic_init graph design in
    let solver = Sat.Solver.create () in
    if certify then Sat.Solver.start_proof solver;
    let emitter = Aig.Cnf.make ~pg:(not plain) graph solver in
    {
      graph;
      design;
      unroller;
      plain;
      mono;
      symbolic_init;
      certify;
      budget;
      solver;
      emitter;
      model = no_model;
      pending = [];
      certified_unsats = 0;
      search_acc = Sat.Solver.stats solver (* a new solver: all counters zero *);
      queries = 0;
      emitted_acc = 0;
      plain_acc = 0;
      single_acc = 0;
      gates_acc = 0;
      pre_acc = zero_presult;
    }

  let unroller t = t.unroller
  let graph t = t.graph

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

  (* Fresh-solver queries: retire the outgoing solver/emitter into the
     accumulators and start a new pair over the same graph. The emitter is
     lazy, so the new solver only sees the cones the query reaches. *)
  let reset_query t =
    let st = Aig.Cnf.stats t.emitter in
    t.emitted_acc <- t.emitted_acc + st.Aig.Cnf.cnf_clauses;
    t.plain_acc <- t.plain_acc + st.Aig.Cnf.cnf_clauses_plain;
    t.single_acc <- t.single_acc + st.Aig.Cnf.cnf_single_pol;
    t.gates_acc <- t.gates_acc + st.Aig.Cnf.cnf_gates;
    t.search_acc <- add_search t.search_acc (Sat.Solver.stats t.solver);
    let solver = Sat.Solver.create () in
    if t.certify then Sat.Solver.start_proof solver;
    t.solver <- solver;
    t.emitter <- Aig.Cnf.make ~pg:(not t.plain) t.graph solver

  let bits_value t bits =
    let n = Array.length bits in
    let v = ref 0 in
    for i = 0 to n - 1 do
      if t.model bits.(i) then v := !v lor (1 lsl i)
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

  let model_lit t l = t.model l

  (* Replay the solver's DRAT stream through the independent checker. Only
     meaningful right after an UNSAT answer to a query with exactly these
     SAT-level assumptions. *)
  let certify_unsat t sat_assumptions =
    Sat.Drat.check ~assumptions:sat_assumptions (Sat.Solver.proof t.solver)

  let check t ~assumptions =
    t.queries <- t.queries + 1;
    if Obs.on () then
      Obs.Trace.span_begin "bmc.query"
        ~args:
          [
            ("query", string_of_int t.queries);
            ("frames", string_of_int (Unroller.max_frame t.unroller + 1));
          ];
    t.model <- no_model;
    let fresh = t.mono in
    if fresh then begin
      reset_query t;
      List.iter (Aig.Cnf.assert_lit t.emitter) (List.rev t.pending)
    end;
    let sat_assumptions = List.map (Aig.Cnf.assume_lit t.emitter) assumptions in
    if fresh && not t.plain then
      (* Only a fresh solver is preprocessed: it answers this one query, so
         variable elimination (merely satisfiability-preserving) is safe
         with the assumptions frozen. An incremental solver keeps taking
         clauses over its variables and is never preprocessed. *)
      t.pre_acc <-
        add_presult t.pre_acc (Sat.Solver.preprocess ~frozen:sat_assumptions t.solver);
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
        t.model <- Aig.Cnf.model_reader t.emitter;
        Cex (extract_witness t)
    | Sat.Solver.Unsat ->
        if t.certify then begin
          match certify_unsat t sat_assumptions with
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
      ss_rewrite_hits = Aig.num_rewrites t.graph;
      ss_clauses_emitted = t.emitted_acc + st.Aig.Cnf.cnf_clauses;
      ss_clauses_plain = t.plain_acc + st.Aig.Cnf.cnf_clauses_plain;
      ss_single_pol = t.single_acc + st.Aig.Cnf.cnf_single_pol;
      ss_gates = t.gates_acc + st.Aig.Cnf.cnf_gates;
      ss_pre = t.pre_acc;
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

let check_safety ?(symbolic_init = false) ?(certify = false) ?(assumes = [])
    ?(plain = false) ?(mono = false) ?budget ?stats ~design ~invariant ~depth () =
  if Expr.width invariant <> 1 then
    invalid_arg "Bmc.check_safety: invariant must be 1 bit wide";
  List.iter
    (fun a ->
      if Expr.width a <> 1 then
        invalid_arg "Bmc.check_safety: assumptions must be 1 bit wide")
    assumes;
  (* One engine for all bounds. Once it runs queries on fresh solvers, the
     design blasting (graph + unrolling) is still shared, but each bound's
     query replays the recorded assumptions and proven bounds. *)
  let engine = Engine.create ~symbolic_init ~certify ~plain ~mono ?budget design in
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
      | Engine.Cex w -> finish (Violated w)
      | Engine.Undecided reason -> finish (Unknown { un_reason = reason; un_bound = k })
      | Engine.Unreachable ->
          (* The invariant holds at cycle k: assert it to help deeper
             queries, then deepen. *)
          Engine.assert_lit engine (Aig.not_ bad);
          deepen (k + 1)
    end
  in
  deepen 0

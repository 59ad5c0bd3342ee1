type config = {
  max_inputs : int;
  max_regs : int;
  max_outputs : int;
  max_width : int;
  max_depth : int;
  sim_cycles : int;
  bmc_depth : int;
}

let default_config =
  {
    max_inputs = 3;
    max_regs = 3;
    max_outputs = 3;
    max_width = 8;
    max_depth = 3;
    sim_cycles = 6;
    bmc_depth = 3;
  }

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

module Gen = struct
  let rand_width rand cfg = 1 + Random.State.int rand (min cfg.max_width Bitvec.max_width)

  (* A uniform [width]-bit value. [Random.State.int] tops out at 2^30-ish
     bounds, so wide values are assembled from 30-bit chunks. *)
  let rand_value rand width =
    let mask = if width >= 62 then -1 lsr 1 else (1 lsl width) - 1 in
    let v =
      Random.State.bits rand
      lor (Random.State.bits rand lsl 30)
      lor (Random.State.bits rand lsl 60)
    in
    v land mask

  let rand_bitvec rand width = Bitvec.make ~width (rand_value rand width)

  (* Coerce [e] to [width] bits: truncate or extend. Always well-typed. *)
  let adapt rand e width =
    let w = Expr.width e in
    if w = width then e
    else if w > width then Expr.extract ~hi:(width - 1) ~lo:0 e
    else if Random.State.bool rand then Expr.zero_extend e width
    else Expr.sign_extend e width

  let pick rand l = List.nth l (Random.State.int rand (List.length l))

  let leaf rand ~vars ~width =
    if vars <> [] && Random.State.int rand 3 > 0 then
      adapt rand (Expr.of_var (pick rand vars)) width
    else Expr.const (rand_bitvec rand width)

  let rec expr rand ~vars ~width ~depth =
    if depth <= 0 then leaf rand ~vars ~width
    else
      let sub ?(d = depth - 1) w = expr rand ~vars ~width:w ~depth:d in
      match Random.State.int rand 14 with
      | 0 -> leaf rand ~vars ~width
      | 1 ->
          let op = pick rand [ Expr.not_; Expr.neg ] in
          op (sub width)
      | 2 | 3 ->
          let op =
            pick rand
              [ Expr.add; Expr.sub; Expr.mul; Expr.udiv; Expr.urem ]
          in
          op (sub width) (sub width)
      | 4 | 5 ->
          let op = pick rand [ Expr.and_; Expr.or_; Expr.xor ] in
          op (sub width) (sub width)
      | 6 ->
          let op = pick rand [ Expr.shl; Expr.lshr; Expr.ashr ] in
          op (sub width) (sub width)
      | 7 ->
          Expr.ite (sub ~d:(depth - 1) 1) (sub width) (sub width)
      | 8 when width = 1 ->
          let w = 1 + Random.State.int rand 8 in
          let op =
            pick rand [ Expr.eq; Expr.ne; Expr.ult; Expr.ule; Expr.slt; Expr.sle ]
          in
          op (sub w) (sub w)
      | 9 when width = 1 ->
          let w = 1 + Random.State.int rand 8 in
          let op = pick rand [ Expr.red_and; Expr.red_or; Expr.red_xor ] in
          op (sub w)
      | 10 when width + 4 <= Bitvec.max_width ->
          (* Extract a [width]-bit slice out of something wider. *)
          let extra = 1 + Random.State.int rand 4 in
          let lo = Random.State.int rand (extra + 1) in
          Expr.extract ~hi:(lo + width - 1) ~lo (sub (width + extra))
      | 11 when width >= 2 ->
          let w = 1 + Random.State.int rand (width - 1) in
          let e = sub w in
          if Random.State.bool rand then Expr.zero_extend e width
          else Expr.sign_extend e width
      | 12 when width >= 2 ->
          let w_lo = 1 + Random.State.int rand (width - 1) in
          Expr.concat (sub (width - w_lo)) (sub w_lo)
      | _ -> leaf rand ~vars ~width

  let valuation rand vars =
    List.fold_left
      (fun m (v : Expr.var) ->
        Rtl.Smap.add v.Expr.name (rand_bitvec rand v.Expr.width) m)
      Rtl.Smap.empty vars

  let design ?(config = default_config) rand =
    let n_inputs = 1 + Random.State.int rand config.max_inputs in
    let n_regs = 1 + Random.State.int rand config.max_regs in
    let n_outputs = 1 + Random.State.int rand config.max_outputs in
    let inputs =
      List.init n_inputs (fun i ->
          { Expr.name = Printf.sprintf "in%d" i; width = rand_width rand config })
    in
    let reg_vars =
      List.init n_regs (fun i ->
          { Expr.name = Printf.sprintf "r%d" i; width = rand_width rand config })
    in
    let vars = inputs @ reg_vars in
    let registers =
      List.map
        (fun (v : Expr.var) ->
          {
            Rtl.reg = v;
            init = rand_bitvec rand v.Expr.width;
            next = expr rand ~vars ~width:v.Expr.width ~depth:config.max_depth;
          })
        reg_vars
    in
    let outputs =
      List.init n_outputs (fun i ->
          let w = rand_width rand config in
          (Printf.sprintf "y%d" i, expr rand ~vars ~width:w ~depth:config.max_depth))
    in
    Rtl.make ~name:"fuzz" ~inputs ~registers ~outputs

  (* Algebraically valid 1-bit facts over random subterms. Each template is
     a theorem of QF_BV, so BMC must answer [Holds] at every bound — and
     with certification on, back each bound with an accepted DRAT proof. *)
  let true_invariant rand ~vars =
    let w = 1 + Random.State.int rand 8 in
    let t () = expr rand ~vars ~width:w ~depth:2 in
    let a = t () and b = t () in
    match Random.State.int rand 6 with
    | 0 -> Expr.eq (Expr.add a b) (Expr.add b a)
    | 1 -> Expr.ule (Expr.and_ a b) a
    | 2 -> Expr.eq (Expr.sub (Expr.add a b) b) a
    | 3 -> Expr.ule a (Expr.or_ a b)
    | 4 -> Expr.eq (Expr.not_ (Expr.not_ a)) a
    | _ -> Expr.eq (Expr.xor a b) (Expr.xor b a)
end

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let all_vars (d : Rtl.design) =
  d.Rtl.inputs @ List.map (fun (r : Rtl.reg) -> r.Rtl.reg) d.Rtl.registers

(* Evaluate a design-scope expression on one trace step (inputs, pre-cycle
   state and outputs are all in scope, mirroring [Bmc.Unroller.expr_bits]). *)
let eval_on_step (d : Rtl.design) (step : Rtl.trace_step) e =
  let rec env (v : Expr.var) =
    match Rtl.Smap.find_opt v.Expr.name step.Rtl.t_inputs with
    | Some bv -> bv
    | None -> (
        match Rtl.Smap.find_opt v.Expr.name step.Rtl.t_state with
        | Some bv -> bv
        | None -> Expr.eval env (Rtl.output_expr d v.Expr.name))
  in
  Expr.eval env e

let bits_to_bitvec eval_bit bits =
  let n = Array.length bits in
  let v = ref 0 in
  for i = 0 to n - 1 do
    if eval_bit bits.(i) then v := !v lor (1 lsl i)
  done;
  Bitvec.make ~width:n !v

(* Transfer a concrete per-frame stimulus onto the AIG inputs an unroller
   allocated for it. *)
let stimulus_array graph unroller (d : Rtl.design) (inputs : Rtl.valuation array) =
  let arr = Array.make (max 1 (Aig.num_inputs graph)) false in
  Array.iteri
    (fun frame valu ->
      List.iter
        (fun (v : Expr.var) ->
          match Bmc.Unroller.find_input unroller v.Expr.name ~frame with
          | None -> ()
          | Some bits ->
              let bv = Rtl.Smap.find v.Expr.name valu in
              Array.iteri
                (fun i bit_lit ->
                  match Aig.input_index graph bit_lit with
                  | Some idx -> arr.(idx) <- Bitvec.bit bv i
                  | None -> ())
                bits)
        d.Rtl.inputs)
    inputs;
  arr

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  (* Cycle-accurate simulator vs the BMC unrolling evaluated on the same
     stimulus: every output and every register of every frame must match
     bit for bit. This crosses three independent code paths — Expr.eval,
     Expr.blast + Aig.eval, and the unroller's frame plumbing. *)
  let sim_vs_unroll ~cycles rand (d : Rtl.design) =
    let stimulus =
      Array.init cycles (fun _ -> Gen.valuation rand d.Rtl.inputs)
    in
    let trace = Rtl.simulate d (Array.to_list stimulus) in
    let graph = Aig.create () in
    let u = Bmc.Unroller.create graph d in
    (* Blast every observable of every frame first so all AIG inputs are
       allocated, then evaluate in one pass. *)
    let obligations =
      List.concat
        (List.mapi
           (fun frame (step : Rtl.trace_step) ->
             let outs =
               List.map
                 (fun (name, oe) ->
                   ( Printf.sprintf "output %s @ cycle %d" name frame,
                     Bmc.Unroller.expr_bits u oe ~frame,
                     Rtl.Smap.find name step.Rtl.t_outputs ))
                 d.Rtl.outputs
             in
             let regs =
               List.map
                 (fun (r : Rtl.reg) ->
                   let name = r.Rtl.reg.Expr.name in
                   ( Printf.sprintf "register %s @ cycle %d" name frame,
                     Bmc.Unroller.reg_bits u name ~frame,
                     Rtl.Smap.find name step.Rtl.t_state ))
                 d.Rtl.registers
             in
             outs @ regs)
           trace)
    in
    let arr = stimulus_array graph u d stimulus in
    let memo_eval = Aig.eval graph arr in
    let rec first_mismatch = function
      | [] -> Ok ()
      | (what, bits, expected) :: rest ->
          let got = bits_to_bitvec memo_eval bits in
          if Bitvec.equal got expected then first_mismatch rest
          else
            Error
              (Printf.sprintf "sim-vs-unroll: %s: simulator %s, AIG %s" what
                 (Bitvec.to_string expected) (Bitvec.to_string got))
    in
    first_mismatch obligations

  (* Concrete evaluation vs bit-blasted evaluation, expression by
     expression, on a random valuation of the free variables. *)
  let eval_vs_blast rand (d : Rtl.design) =
    let check_expr what e =
      let vars = Expr.vars e in
      let valu = Gen.valuation rand vars in
      let env v = Rtl.Smap.find v.Expr.name valu in
      let concrete = Expr.eval env e in
      let graph = Aig.create () in
      let allocated = Hashtbl.create 8 in
      let env_bits (v : Expr.var) =
        match Hashtbl.find_opt allocated v.Expr.name with
        | Some bits -> bits
        | None ->
            let bits = Array.init v.Expr.width (fun _ -> Aig.fresh_input graph) in
            Hashtbl.add allocated v.Expr.name bits;
            bits
      in
      let bits = Expr.blast graph env_bits e in
      let arr = Array.make (max 1 (Aig.num_inputs graph)) false in
      Hashtbl.iter
        (fun name in_bits ->
          let bv = Rtl.Smap.find name valu in
          Array.iteri
            (fun i l ->
              match Aig.input_index graph l with
              | Some idx -> arr.(idx) <- Bitvec.bit bv i
              | None -> ())
            in_bits)
        allocated;
      let blasted = bits_to_bitvec (Aig.eval graph arr) bits in
      if Bitvec.equal concrete blasted then Ok ()
      else
        Error
          (Printf.sprintf "eval-vs-blast: %s: eval %s, blast %s" what
             (Bitvec.to_string concrete) (Bitvec.to_string blasted))
    in
    let exprs =
      List.map (fun (r : Rtl.reg) -> ("next(" ^ r.Rtl.reg.Expr.name ^ ")", r.Rtl.next))
        d.Rtl.registers
      @ List.map (fun (name, e) -> (name, e)) d.Rtl.outputs
    in
    List.fold_left
      (fun acc (what, e) ->
        match acc with Error _ -> acc | Ok () -> check_expr what e)
      (Ok ()) exprs

  (* Hash-consed vs naive AIG construction of the same circuit: identical
     input allocation order, identical stimulus, demanded-identical values.
     Any divergence means the structural-hashing table conflated two
     distinct functions. *)
  let strash_on_vs_off rand (d : Rtl.design) =
    let build strash =
      let graph = Aig.create ~strash () in
      let allocated = Hashtbl.create 8 in
      let order = ref [] in
      let env_bits (v : Expr.var) =
        match Hashtbl.find_opt allocated v.Expr.name with
        | Some bits -> bits
        | None ->
            let bits = Array.init v.Expr.width (fun _ -> Aig.fresh_input graph) in
            Hashtbl.add allocated v.Expr.name bits;
            order := v :: !order;
            bits
      in
      let roots =
        List.map (fun (r : Rtl.reg) -> Expr.blast graph env_bits r.Rtl.next)
          d.Rtl.registers
        @ List.map (fun (_, e) -> Expr.blast graph env_bits e) d.Rtl.outputs
      in
      (graph, allocated, roots)
    in
    let g_on, alloc_on, roots_on = build true in
    let g_off, _alloc_off, roots_off = build false in
    (* Same blast order means the same variables allocate the same input
       indices in both graphs, so one valuation drives both. *)
    let vars =
      Hashtbl.fold (fun name bits acc -> (name, bits) :: acc) alloc_on []
    in
    let valu =
      List.fold_left
        (fun m (name, bits) ->
          Rtl.Smap.add name
            (Gen.rand_bitvec rand (Array.length bits))
            m)
        Rtl.Smap.empty vars
    in
    let input_arr graph allocated =
      let arr = Array.make (max 1 (Aig.num_inputs graph)) false in
      Hashtbl.iter
        (fun name in_bits ->
          let bv = Rtl.Smap.find name valu in
          Array.iteri
            (fun i l ->
              match Aig.input_index graph l with
              | Some idx -> arr.(idx) <- Bitvec.bit bv i
              | None -> ())
            in_bits)
        allocated;
      arr
    in
    let arr_on = input_arr g_on alloc_on in
    let arr_off = input_arr g_off _alloc_off in
    let eval_on = Aig.eval g_on arr_on and eval_off = Aig.eval g_off arr_off in
    let rec compare_roots i ro rf =
      match (ro, rf) with
      | [], [] -> Ok ()
      | bo :: ro, bf :: rf ->
          let vo = bits_to_bitvec eval_on bo and vf = bits_to_bitvec eval_off bf in
          if Bitvec.equal vo vf then compare_roots (i + 1) ro rf
          else
            Error
              (Printf.sprintf "strash: root %d: hashed %s, naive %s" i
                 (Bitvec.to_string vo) (Bitvec.to_string vf))
      | _ -> Error "strash: root count mismatch"
    in
    compare_roots 0 roots_on roots_off

  let outcome_to_string = function
    | Bmc.Holds d -> Printf.sprintf "holds@%d" d
    | Bmc.Violated w -> Printf.sprintf "violated@%d" w.Bmc.w_length
    | Bmc.Unknown u ->
        Printf.sprintf "unknown(%s@%d)"
          (Sat.Solver.reason_to_string u.Bmc.un_reason)
          u.Bmc.un_bound

  (* The outcome agreement every differential oracle demands of a lane:
     the same proved bound, or counterexamples of the same length. An
     [Unknown] on either side is a disagreement; oracles that tolerate a
     lane giving up (budget) filter that case out before calling. *)
  let same_outcome ~oracle ~lane reference got =
    match (reference, got) with
    | Bmc.Holds a, Bmc.Holds b when a = b -> Ok ()
    | Bmc.Violated wa, Bmc.Violated wb when wa.Bmc.w_length = wb.Bmc.w_length -> Ok ()
    | _ ->
        Error
          (Printf.sprintf "%s: %s lane decided %s but the reference decided %s" oracle
             lane (outcome_to_string got) (outcome_to_string reference))

  (* UNSAT bounds a certifying run DRAT-checked on its way to [outcome]:
     every bound of a proof, every bound below a counterexample. *)
  let certified_bounds = function
    | Bmc.Holds bound -> bound
    | Bmc.Violated w -> w.Bmc.w_length - 1
    | Bmc.Unknown _ -> 0

  (* BMC verdicts against simulator ground truth:
     - a by-construction-true invariant must come back [Holds];
     - a random invariant's counterexample must replay concretely (true at
       every cycle but the last, false at the last);
     - a random invariant BMC proved must also survive concrete random
       simulation to the same depth;
     - the default engine must agree with one on fresh solvers from the
       first query.
     With [cert] on, every UNSAT bound is DRAT-certified (the engine raises
     [Certification_failed] on a rejected proof — reported as an oracle
     failure, since it means "Proved" without a checkable proof). *)
  let bmc_vs_sim ?(cert = false) ~depth rand (d : Rtl.design) =
    let vars = all_vars d in
    let certified = ref 0 in
    let run_one ~expect_holds invariant =
      match
        Bmc.check_safety ~certify:cert ~design:d ~invariant ~depth ()
      with
      | exception Bmc.Certification_failed msg ->
          Error ("bmc: rejected DRAT certificate: " ^ msg)
      | outcome, _stats -> (
          if cert then certified := !certified + certified_bounds outcome;
          let fresh, _ = Bmc.check_safety ~mono:true ~design:d ~invariant ~depth () in
          match same_outcome ~oracle:"bmc" ~lane:"fresh-solver" outcome fresh with
          | Error _ as e -> e
          | Ok () -> (
              match outcome with
              | Bmc.Unknown u ->
                  (* No limits were passed, so giving up is itself a bug. *)
                  Error
                    (Printf.sprintf "bmc: unlimited run gave up: %s @ bound %d"
                       (Sat.Solver.reason_to_string u.Bmc.un_reason)
                       u.Bmc.un_bound)
              | Bmc.Holds _ when expect_holds -> Ok ()
              | Bmc.Violated _ when expect_holds ->
                  Error "bmc: true-by-algebra invariant reported violated"
              | Bmc.Holds bound ->
                  (* No counterexample up to [bound]: concrete random runs of
                     the same length must not find one either. *)
                  let stimulus =
                    List.init bound (fun _ -> Gen.valuation rand d.Rtl.inputs)
                  in
                  let trace = Rtl.simulate d stimulus in
                  let violated_at =
                    List.find_index
                      (fun step ->
                        Bitvec.is_zero (eval_on_step d step invariant))
                      trace
                  in
                  (match violated_at with
                  | None -> Ok ()
                  | Some k ->
                      Error
                        (Printf.sprintf
                           "bmc: proved to depth %d but simulation violates at cycle %d"
                           bound k))
              | Bmc.Violated w ->
                  (* The witness must replay: invariant true before the last
                     cycle, false exactly at it. *)
                  let steps = Array.of_list w.Bmc.w_trace in
                  let n = Array.length steps in
                  if n <> w.Bmc.w_length then Error "bmc: witness trace length mismatch"
                  else
                    let check_cycle k =
                      let v = eval_on_step d steps.(k) invariant in
                      let expected = k < n - 1 in
                      if Bitvec.to_bool v = expected then None
                      else
                        Some
                          (Printf.sprintf
                             "bmc: witness invariant %s at cycle %d (expected %s)"
                             (if Bitvec.to_bool v then "true" else "false")
                             k
                             (if expected then "true" else "false"))
                    in
                    let rec scan k =
                      if k >= n then Ok ()
                      else match check_cycle k with
                        | Some msg -> Error msg
                        | None -> scan (k + 1)
                    in
                    scan 0))
    in
    let true_inv = Gen.true_invariant rand ~vars in
    let random_inv = Gen.expr rand ~vars ~width:1 ~depth:2 in
    match run_one ~expect_holds:true true_inv with
    | Error _ as e -> e
    | Ok () -> (
        match run_one ~expect_holds:false random_inv with
        | Error _ as e -> e
        | Ok () -> Ok !certified)

  (* The formula-shrinking pipeline must be invisible in verdicts: the same
     safety check runs with every stage on, every stage off, and each stage
     individually, and all runs must agree (same proved bound, or
     counterexamples of the same length whose witnesses replay — every run
     goes through the simulator replay inside [check_safety]). With [cert]
     the fully-simplified run is DRAT-certified at every UNSAT bound,
     exercising the proof logging of rewriting + Plaisted-Greenbaum +
     preprocessing end to end. *)
  let simplify_on_vs_off ?(cert = false) ~depth rand (d : Rtl.design) =
    let vars = all_vars d in
    let invariant = Gen.expr rand ~vars ~width:1 ~depth:2 in
    let certified = ref 0 in
    let run_conf name ~certify simplify =
      match Bmc.check_safety ~certify ~simplify ~design:d ~invariant ~depth () with
      | exception Bmc.Certification_failed msg ->
          Error (Printf.sprintf "simplify(%s): rejected DRAT certificate: %s" name msg)
      | outcome, _ -> Ok outcome
    in
    let agree lane = same_outcome ~oracle:"simplify" ~lane in
    match run_conf "off" ~certify:false Bmc.no_simplify with
    | Error _ as e -> e
    | Ok base -> (
        match run_conf "all" ~certify:cert Bmc.default_simplify with
        | Error _ as e -> e
        | Ok full -> (
            if cert then certified := certified_bounds full;
            match agree "all" base full with
            | Error _ as e -> e
            | Ok () ->
                let stages =
                  [
                    ("rewrite", { Bmc.no_simplify with Bmc.sc_rewrite = true });
                    ("pg", { Bmc.no_simplify with Bmc.sc_pg = true });
                    ("cnf", { Bmc.no_simplify with Bmc.sc_cnf = true });
                  ]
                in
                let rec check_stages = function
                  | [] -> Ok !certified
                  | (name, conf) :: rest -> (
                      match run_conf name ~certify:false conf with
                      | Error _ as e -> e
                      | Ok outcome -> (
                          match agree name base outcome with
                          | Error _ as e -> e
                          | Ok () -> check_stages rest))
                in
                check_stages stages))

  (* Budget invariance: the same safety check under per-query conflict
     caps drawn uniformly from 0 .. 2c + 1, c the reference run's total
     conflicts, so some trials decide and some give up. The property under
     test: a budget may only degrade a verdict to [Unknown] — it must never
     flip [Holds] <-> [Violated] against the unbudgeted reference — and
     every query that does complete still DRAT-certifies (certification
     stays on, so a rejected certificate surfaces through
     [Certification_failed]). *)
  let budget_caps ?(cert = false) ~depth rand (d : Rtl.design) =
    let vars = all_vars d in
    let invariant = Gen.expr rand ~vars ~width:1 ~depth:2 in
    match Bmc.check_safety ~certify:cert ~design:d ~invariant ~depth () with
    | exception Bmc.Certification_failed msg ->
        Error ("budget: unbudgeted run rejected a DRAT certificate: " ^ msg)
    | reference, stats -> (
        let certified = if cert then certified_bounds reference else 0 in
        let rec trial k =
          if k >= 3 then Ok ()
          else
            let cap = Random.State.int rand ((2 * stats.Sat.Solver.conflicts) + 2) in
            let budget = Sat.Solver.budget ~conflicts:cap () in
            match Bmc.check_safety ~certify:cert ~budget ~design:d ~invariant ~depth () with
            | exception Bmc.Certification_failed msg ->
                Error
                  ("budget: completed query under a budget rejected its DRAT \
                    certificate: " ^ msg)
            | Bmc.Unknown _, _ -> trial (k + 1)
            | capped, _ -> (
                let lane = Printf.sprintf "trial %d (cap %d)" k cap in
                match same_outcome ~oracle:"budget" ~lane reference capped with
                | Error _ as e -> e
                | Ok () -> trial (k + 1))
        in
        Result.map (fun () -> certified) (trial 0))

  (* Observability invariance: tracing must be verdict-invisible. The same
     safety check run with tracing enabled must decide exactly the untraced
     verdict (spans only watch the pipeline, they never steer it), the
     emitted trace must pass the structural well-formedness checker, and
     the ndjson export must round-trip through the parser. Same gate style
     as the budget oracle: any disagreement is a failure. *)
  let check_trace events =
    if events = [] then Error "tracing: enabled run emitted no events"
    else
      match Obs.Trace.check events with
      | Error msg -> Error ("tracing: malformed trace: " ^ msg)
      | Ok () -> (
          (* The ndjson export must survive a parse round-trip and still
             satisfy the checker — this is the same path the CLI's
             trace-check subcommand and the CI obs-smoke job rely on. *)
          let buf = Buffer.create 4096 in
          Obs.Trace.to_ndjson buf events;
          match Obs.Trace.parse_ndjson (Buffer.contents buf) with
          | Error msg -> Error ("tracing: ndjson did not round-trip: " ^ msg)
          | Ok events' ->
              if List.length events' <> List.length events then
                Error
                  (Printf.sprintf "tracing: round-trip lost events (%d -> %d)"
                     (List.length events) (List.length events'))
              else (
                match Obs.Trace.check events' with
                | Error msg -> Error ("tracing: round-tripped trace malformed: " ^ msg)
                | Ok () -> Ok ()))

  let tracing_on_vs_off ?(cert = false) ~depth rand (d : Rtl.design) =
    let vars = all_vars d in
    let invariant = Gen.expr rand ~vars ~width:1 ~depth:2 in
    match Bmc.check_safety ~certify:cert ~design:d ~invariant ~depth () with
    | exception Bmc.Certification_failed msg ->
        Error ("tracing: untraced run rejected a DRAT certificate: " ^ msg)
    | reference, _ -> (
        let certified = if cert then certified_bounds reference else 0 in
        let was_on = Obs.on () in
        Obs.Trace.reset ();
        Obs.enable ();
        let traced =
          Fun.protect
            ~finally:(fun () -> if not was_on then Obs.disable ())
            (fun () ->
              match Bmc.check_safety ~certify:cert ~design:d ~invariant ~depth () with
              | outcome, _ -> Ok outcome
              | exception Bmc.Certification_failed msg -> Error msg)
        in
        let events = Obs.Trace.events () in
        Obs.Trace.reset ();
        match traced with
        | Error msg -> Error ("tracing: traced run rejected a DRAT certificate: " ^ msg)
        | Ok traced ->
            Result.bind
              (same_outcome ~oracle:"tracing" ~lane:"traced" reference traced)
              (fun () -> Result.map (fun () -> certified) (check_trace events)))

  (* Both campaign oracles run small safety-check campaigns through
     [Dist.run]. A random design cannot be rebuilt from a compact arg
     string in a re-exec'd worker, so the cell table is marshalled to a
     temp file and the file path travels as the solver arg. *)

  let dist_tables : (string, (string, Rtl.design * Expr.t * int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 4

  let dist_solver ~arg key =
    let table =
      match Hashtbl.find_opt dist_tables arg with
      | Some t -> t
      | None ->
          let ic = open_in_bin arg in
          let entries : (string * (Rtl.design * Expr.t * int)) list =
            Marshal.from_channel ic
          in
          close_in ic;
          let t = Hashtbl.create 8 in
          List.iter (fun (k, v) -> Hashtbl.replace t k v) entries;
          Hashtbl.add dist_tables arg t;
          t
    in
    match Hashtbl.find_opt table key with
    | None -> failwith ("fuzz dist worker: unknown cell " ^ key)
    | Some (d, invariant, depth) ->
        let outcome = fst (Bmc.check_safety ~design:d ~invariant ~depth ()) in
        let decided =
          match outcome with
          | Bmc.Unknown _ -> false
          | Bmc.Holds _ | Bmc.Violated _ -> true
        in
        (decided, outcome_to_string outcome)

  let () = Dist.register "fuzz-dist" dist_solver

  (* Marshal the (key, invariant) campaign over [d] to a temp cell table
     and hand [f] the table path (the "fuzz-dist" solver arg), a fresh
     journal path and the cells; both files and the in-process copy of
     the table are gone afterwards. *)
  let with_cell_table ~depth (d : Rtl.design) spec f =
    let table_file = Filename.temp_file "gqed-fuzz-dist" ".tbl" in
    let journal = Filename.temp_file "gqed-fuzz-dist" ".jrnl" in
    Sys.remove journal;
    let cleanup () =
      Hashtbl.remove dist_tables table_file;
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ table_file; journal ]
    in
    Fun.protect ~finally:cleanup (fun () ->
        let oc = open_out_bin table_file in
        Marshal.to_channel oc (List.map (fun (k, inv) -> (k, (d, inv, depth))) spec) [];
        close_out oc;
        let cells =
          List.mapi
            (fun i (k, _) -> { Dist.cell_key = k; cell_hint = float_of_int i })
            spec
        in
        f ~table_file ~journal cells)

  (* The campaign's payload column must equal the reference outcomes.
     With [warm], each row must also come back warm exactly when
     [warm key] says so. *)
  let diff_rows ?warm ~oracle what reference rows =
    let rec go i a b =
      match (a, b) with
      | [], [] -> Ok ()
      | x :: a', y :: b' ->
          if not (String.equal x y.Dist.r_payload) then
            Error
              (Printf.sprintf "%s: %s: cell %d decided %s but the reference decided %s"
                 oracle what i y.Dist.r_payload x)
          else begin
            match warm with
            | Some warm when warm y.Dist.r_key <> y.Dist.r_warm ->
                Error
                  (Printf.sprintf "%s: %s: cell %d served %s, but the journal %s it"
                     oracle what i
                     (if y.Dist.r_warm then "warm" else "cold")
                     (if y.Dist.r_warm then "had not decided" else "had decided"))
            | _ -> go (i + 1) a' b'
          end
      | _ -> Error (Printf.sprintf "%s: %s: matrix length differs" oracle what)
    in
    go 0 reference rows

  (* Which keys a resume of [journal] must serve warm: those whose last
     surviving record is decided. Read after the crash, before the
     resume appends anything. *)
  let journaled_decided ~oracle journal =
    match Persist.Journal.load journal with
    | Error msg -> Error (Printf.sprintf "%s: cannot reload the journal: %s" oracle msg)
    | Ok (entries, _) ->
        let last = Hashtbl.create 8 in
        List.iter
          (fun e -> Hashtbl.replace last e.Persist.Journal.e_key e.Persist.Journal.e_decided)
          entries;
        Ok (fun key -> Option.value ~default:false (Hashtbl.find_opt last key))

  (* Crash-safe campaigns: journal a small verification campaign through
     the serial campaign runner ([Dist.run ~workers:1], the path
     [gqed campaign --workers 1] takes), kill it at a random record
     boundary (sometimes mid-append, leaving a torn tail), resume from the
     damaged journal and diff the final verdict matrix bit-for-bit
     against a clean run. The property under test: a crash may only cost
     re-work — the resumed matrix must equal the clean one exactly, every
     decided record that survived is served warm rather than re-solved,
     journaled [Unknown]s are re-attempted rather than trusted, and a
     torn tail is truncated away without poisoning the replayed prefix.
     With [cert] the clean reference queries DRAT-certify their UNSAT
     bounds. *)
  let checkpoint_resume ?(cert = false) ~depth rand (d : Rtl.design) =
    let vars = all_vars d in
    let invariants =
      List.init 3 (fun i ->
          ( Printf.sprintf "inv%d" i,
            if i = 0 then Gen.true_invariant rand ~vars
            else Gen.expr rand ~vars ~width:1 ~depth:2 ))
    in
    let solve invariant =
      fst (Bmc.check_safety ~certify:cert ~design:d ~invariant ~depth ())
    in
    match List.map (fun (_, inv) -> solve inv) invariants with
    | exception Bmc.Certification_failed msg ->
        Error ("checkpoint: clean run rejected a DRAT certificate: " ^ msg)
    | outcomes ->
        let certified =
          if cert then List.fold_left (fun acc o -> acc + certified_bounds o) 0 outcomes
          else 0
        in
        let reference = List.map outcome_to_string outcomes in
        let diff = diff_rows ~oracle:"checkpoint" in
        with_cell_table ~depth d invariants (fun ~table_file ~journal cells ->
            let run ~resume =
              match
                Dist.run ~workers:1 ~sync:false ~resume ~force:false ~journal
                  ~solver:"fuzz-dist" ~arg:table_file cells
              with
              | Error msg -> Error ("checkpoint: " ^ msg)
              | Ok (rows, _) -> Ok rows
            in
            match run ~resume:false with
            | Error _ as e -> e
            | Ok full -> (
                match diff "journaled run" reference full with
                | Error _ as e -> e
                | Ok () -> (
                    (* Kill the campaign: keep a random prefix of records and,
                       half the time, a few bytes of a half-written record —
                       exactly what a crash mid-append leaves behind. *)
                    let keep = Random.State.int rand (List.length invariants) in
                    let torn_bytes = if Random.State.bool rand then 9 else 0 in
                    Persist.Journal.chop ~torn_bytes ~keep journal;
                    match journaled_decided ~oracle:"checkpoint" journal with
                    | Error _ as e -> e
                    | Ok warm -> (
                        match run ~resume:true with
                        | Error _ as e -> e
                        | Ok resumed ->
                            Result.map
                              (fun () -> certified)
                              (diff ~warm "resumed run" reference resumed)))))

  (* Distributed campaigns: the same crash-only-costs-rework property as
     [checkpoint_resume], but with real worker processes — shard a small
     safety-check campaign across 2 workers, SIGKILL one at a random ack
     (downing the whole run), resume from the coordinator's journal
     (sometimes with its last record torn) and diff the resumed matrix
     against an in-process reference; every decided record that survived
     must be served warm. *)
  let dist_kill_worker ~depth rand (d : Rtl.design) =
    let vars = all_vars d in
    let cells_spec =
      List.init 4 (fun i ->
          ( Printf.sprintf "inv%d" i,
            if i = 0 then Gen.true_invariant rand ~vars
            else Gen.expr rand ~vars ~width:1 ~depth:2 ))
    in
    let reference =
      List.map
        (fun (_, invariant) ->
          outcome_to_string (fst (Bmc.check_safety ~design:d ~invariant ~depth ())))
        cells_spec
    in
    let diff = diff_rows ~oracle:"dist" in
    with_cell_table ~depth d cells_spec (fun ~table_file ~journal cells ->
        let policy = { Dist.max_restarts = 1; backoff_s = 0.001; backoff_cap_s = 0.002 } in
        let run ?kill ~resume () =
          Dist.run ~workers:2 ~batch:1 ~policy ?kill ~sync:false ~resume
            ~force:false ~journal ~solver:"fuzz-dist" ~arg:table_file cells
        in
        let kill =
          {
            Dist.k_worker = Random.State.int rand 2;
            k_after = 1 + Random.State.int rand (List.length cells_spec - 1);
            k_mode = `Abort;
          }
        in
        match run ~kill ~resume:false () with
        | Ok (rows, _) ->
            (* The campaign outran the kill point — still a full matrix. *)
            diff "unkilled run" reference rows
        | Error _ -> (
            (* Downed mid-run: the journal holds what was answered. Half
               the time, tear its last record — the coordinator SIGKILLed
               mid-append. *)
            (if Random.State.bool rand then
               match Persist.Journal.load journal with
               | Ok (entries, _) when entries <> [] ->
                   Persist.Journal.chop ~torn_bytes:7 ~keep:(List.length entries - 1) journal
               | _ -> ());
            match journaled_decided ~oracle:"dist" journal with
            | Error _ as e -> e
            | Ok warm -> (
                match run ~resume:true () with
                | Error msg -> Error ("dist: resume failed: " ^ msg)
                | Ok (rows, _) -> diff ~warm "resumed run" reference rows)))
end

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let design_size (d : Rtl.design) =
  List.length d.Rtl.inputs + List.length d.Rtl.registers
  + List.fold_left (fun a (r : Rtl.reg) -> a + Expr.size r.Rtl.next) 0 d.Rtl.registers
  + List.fold_left (fun a (_, e) -> a + Expr.size e) 0 d.Rtl.outputs

let remake (d : Rtl.design) ~inputs ~registers ~outputs =
  match Rtl.validate ~name:d.Rtl.name ~inputs ~registers ~outputs with
  | Ok () -> Some (Rtl.make ~name:d.Rtl.name ~inputs ~registers ~outputs)
  | Error _ -> None

(* Substitute a constant for one variable in every expression of the
   design (used when dropping an input or register). *)
let subst_const (d : Rtl.design) (v : Expr.var) value ~inputs ~registers =
  let f (u : Expr.var) =
    if u.Expr.name = v.Expr.name then Some (Expr.const value) else None
  in
  let registers =
    List.map (fun (r : Rtl.reg) -> { r with Rtl.next = Expr.subst f r.Rtl.next }) registers
  in
  let outputs = List.map (fun (n, e) -> (n, Expr.subst f e)) d.Rtl.outputs in
  remake d ~inputs ~registers ~outputs

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* One round of shrink candidates, roughly most-aggressive first. *)
let shrink_candidates (d : Rtl.design) =
  let drop_outputs =
    List.mapi
      (fun i _ ->
        fun () ->
          remake d ~inputs:d.Rtl.inputs ~registers:d.Rtl.registers
            ~outputs:(drop_nth d.Rtl.outputs i))
      d.Rtl.outputs
  in
  let drop_registers =
    List.mapi
      (fun i (r : Rtl.reg) ->
        fun () ->
          subst_const d r.Rtl.reg r.Rtl.init ~inputs:d.Rtl.inputs
            ~registers:(drop_nth d.Rtl.registers i))
      d.Rtl.registers
  in
  let drop_inputs =
    List.mapi
      (fun i (v : Expr.var) ->
        fun () ->
          subst_const d v (Bitvec.zero v.Expr.width) ~inputs:(drop_nth d.Rtl.inputs i)
            ~registers:d.Rtl.registers)
      d.Rtl.inputs
  in
  let with_reg_next i next =
    let registers =
      List.mapi
        (fun j (r : Rtl.reg) -> if j = i then { r with Rtl.next = next } else r)
        d.Rtl.registers
    in
    remake d ~inputs:d.Rtl.inputs ~registers ~outputs:d.Rtl.outputs
  in
  let with_output i e =
    let outputs =
      List.mapi (fun j (n, oe) -> if j = i then (n, e) else (n, oe)) d.Rtl.outputs
    in
    remake d ~inputs:d.Rtl.inputs ~registers:d.Rtl.registers ~outputs
  in
  (* Expression-level shrinks: replace a register's next-state function or
     an output by a constant, by its own (simplified) value, or keep the
     register frozen at its reset value. *)
  let simplify_regs =
    List.concat
      (List.mapi
         (fun i (r : Rtl.reg) ->
           let w = Expr.width r.Rtl.next in
           [
             (fun () -> with_reg_next i (Expr.const (Bitvec.zero w)));
             (fun () -> with_reg_next i (Expr.const r.Rtl.init));
             (fun () -> with_reg_next i (Expr.of_var r.Rtl.reg));
             (fun () ->
               let s = Expr.simplify r.Rtl.next in
               if Expr.size s < Expr.size r.Rtl.next then with_reg_next i s else None);
           ])
         d.Rtl.registers)
  in
  let simplify_outputs =
    List.concat
      (List.mapi
         (fun i (_, e) ->
           let w = Expr.width e in
           [
             (fun () -> with_output i (Expr.const (Bitvec.zero w)));
             (fun () ->
               let s = Expr.simplify e in
               if Expr.size s < Expr.size e then with_output i s else None);
           ])
         d.Rtl.outputs)
  in
  drop_outputs @ drop_registers @ drop_inputs @ simplify_regs @ simplify_outputs

let shrink ~failing d0 =
  let budget = ref 500 in
  let rec loop d =
    let try_candidate acc cand =
      match acc with
      | Some _ -> acc
      | None ->
          if !budget <= 0 then None
          else begin
            decr budget;
            match cand () with
            | None -> None
            | Some d' ->
                (* Asynchronous exceptions must escape: swallowing
                   [Out_of_memory] here would turn resource exhaustion into
                   a silent "shrink didn't reproduce". *)
                let still_failing d' =
                  try failing d' with
                  | (Out_of_memory | Stack_overflow | Sys.Break) as e -> raise e
                  | _ -> false
                in
                if design_size d' < design_size d && still_failing d' then Some d'
                else None
          end
    in
    match List.fold_left try_candidate None (shrink_candidates d) with
    | Some d' -> loop d'
    | None -> d
  in
  loop d0

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let design_to_string (d : Rtl.design) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "design %s\n" d.Rtl.name);
  List.iter
    (fun (v : Expr.var) ->
      Buffer.add_string buf (Printf.sprintf "  input %s : %d\n" v.Expr.name v.Expr.width))
    d.Rtl.inputs;
  List.iter
    (fun (r : Rtl.reg) ->
      Buffer.add_string buf
        (Printf.sprintf "  reg %s : %d init=%s next=%s\n" r.Rtl.reg.Expr.name
           r.Rtl.reg.Expr.width (Bitvec.to_string r.Rtl.init)
           (Expr.to_string r.Rtl.next)))
    d.Rtl.registers;
  List.iter
    (fun (name, e) ->
      Buffer.add_string buf
        (Printf.sprintf "  output %s : %d = %s\n" name (Expr.width e)
           (Expr.to_string e)))
    d.Rtl.outputs;
  Buffer.contents buf

type failure = {
  case : int;
  oracle : string;
  message : string;
  design : Rtl.design;
  file : string option;
}

type summary = { cases : int; failures : failure list; certified_unsats : int }

(* The oracle battery. Each oracle gets its own RNG stream derived from
   (seed, case, stream index) so a shrink replay reproduces its stimulus
   exactly without re-running the oracles before it. The indices are
   fixed: stream 4 belonged to a deleted oracle, and renumbering the
   later ones would change every draw they see. *)
let oracles ~config ~cert =
  [
    ( 0, "sim-vs-unroll",
      fun rand d ->
        Result.map (fun () -> 0) (Oracle.sim_vs_unroll ~cycles:config.sim_cycles rand d) );
    (1, "eval-vs-blast", fun rand d -> Result.map (fun () -> 0) (Oracle.eval_vs_blast rand d));
    (2, "strash", fun rand d -> Result.map (fun () -> 0) (Oracle.strash_on_vs_off rand d));
    (3, "bmc-vs-sim", fun rand d -> Oracle.bmc_vs_sim ~cert ~depth:config.bmc_depth rand d);
    ( 5, "simplify",
      fun rand d -> Oracle.simplify_on_vs_off ~cert ~depth:config.bmc_depth rand d );
    (6, "budget", fun rand d -> Oracle.budget_caps ~cert ~depth:config.bmc_depth rand d);
    ( 7, "tracing",
      fun rand d -> Oracle.tracing_on_vs_off ~cert ~depth:config.bmc_depth rand d );
    ( 8, "checkpoint",
      fun rand d -> Oracle.checkpoint_resume ~cert ~depth:config.bmc_depth rand d );
    ( 9, "dist-kill",
      fun rand d ->
        Result.map
          (fun () -> 0)
          (Oracle.dist_kill_worker ~depth:config.bmc_depth rand d) );
  ]

let run_oracle oracle_fn ~seed ~case ~idx d =
  let rand = Random.State.make [| seed; case; idx |] in
  match oracle_fn rand d with
  | Ok certs -> Ok certs
  | Error msg -> Error msg
  | exception Bmc.Certification_failed msg -> Error ("certification failed: " ^ msg)
  (* Never swallow asynchronous exceptions: the process is out of resources
     (or the user hit ^C) and "oracle failed" would be a lie. *)
  | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) -> raise e
  | exception e -> Error ("exception: " ^ Printexc.to_string e)

let write_corpus_file ~out_dir ~seed ~case ~oracle ~message d =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let file = Filename.concat out_dir (Printf.sprintf "seed%d-case%d-%s.txt" seed case oracle) in
  let oc = open_out file in
  Printf.fprintf oc "# fuzz failure\n# oracle: %s\n# seed: %d\n# case: %d\n# %s\n#\n# replay: gqed fuzz --seed %d --count %d\n\n%s"
    oracle seed case message seed (case + 1) (design_to_string d);
  close_out oc;
  file

let run ?(config = default_config) ?out_dir ?(progress = fun _ -> ()) ~seed ~count
    ~cert () =
  let battery = oracles ~config ~cert in
  let failures = ref [] in
  let certified = ref 0 in
  for case = 0 to count - 1 do
    let rand = Random.State.make [| seed; case |] in
    let d = Gen.design ~config rand in
    List.iter
      (fun (idx, name, fn) ->
        match run_oracle fn ~seed ~case ~idx d with
        | Ok certs -> certified := !certified + certs
        | Error message ->
            let failing d' =
              match run_oracle fn ~seed ~case ~idx d' with
              | Ok _ -> false
              | Error _ -> true
            in
            let small = shrink ~failing d in
            let file =
              Option.map
                (fun dir ->
                  write_corpus_file ~out_dir:dir ~seed ~case ~oracle:name ~message small)
                out_dir
            in
            failures := { case; oracle = name; message; design = small; file } :: !failures)
      battery;
    progress case
  done;
  { cases = count; failures = List.rev !failures; certified_unsats = !certified }

(* ------------------------------------------------------------------ *)
(* DIMACS-level fuzz                                                   *)
(* ------------------------------------------------------------------ *)

let exhaustive_sat n clauses =
  (* Exhaustive backtracking over all 2^n assignments, pruning a branch as
     soon as some clause has every literal assigned false. Deliberately
     shares no code with the solver under test. *)
  let assign = Array.make (max n 1) (-1) in
  let clauses = Array.of_list (List.map Array.of_list clauses) in
  let clause_alive c =
    Array.exists
      (fun l ->
        let v = assign.(Sat.Lit.var l) in
        v = -1 || v = (if Sat.Lit.is_neg l then 0 else 1))
      c
  in
  let rec go d =
    if not (Array.for_all clause_alive clauses) then false
    else if d = n then true
    else begin
      assign.(d) <- 0;
      let r =
        go (d + 1)
        ||
        (assign.(d) <- 1;
         go (d + 1))
      in
      assign.(d) <- -1;
      r
    end
  in
  go 0

(* PHP(n+1, n), n in {6, 7, 8}: every pigeon in some hole, no two pigeons
   in one hole. Unsatisfiable; for n >= 7 hard enough (thousands of
   conflicts) to drive learnt-database reduction and arena compaction,
   which the small instances never reach. Variables are renamed and their
   polarities flipped at random, which keeps the formula unsatisfiable. *)
let pigeonhole rand =
  let holes = 6 + Random.State.int rand 3 in
  let n = (holes + 1) * holes in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let flip = Array.init n (fun _ -> Random.State.bool rand) in
  let lit p h ~neg =
    let v = perm.((p * holes) + h) in
    Sat.Lit.make v ~neg:(neg <> flip.(v))
  in
  let pigeons = List.init (holes + 1) Fun.id and hole_ids = List.init holes Fun.id in
  let at_least = List.map (fun p -> List.map (fun h -> lit p h ~neg:false) hole_ids) pigeons in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p ->
            List.filter_map
              (fun q -> if q > p then Some [ lit p h ~neg:true; lit q h ~neg:true ] else None)
              pigeons)
          pigeons)
      hole_ids
  in
  (n, at_least @ at_most)

let dimacs ?(max_vars = 20) ~seed ~count ~cert () =
  let rand = Random.State.make [| seed |] in
  let bad = ref [] in
  let flag i msg = bad := (i, msg) :: !bad in
  for i = 1 to count do
    let n = 1 + Random.State.int rand max_vars in
    let m = Random.State.int rand ((4 * n) + 1) in
    let clauses = ref [] in
    for _ = 1 to m do
      (* Length distribution biased toward binary clauses so the solver's
         binary implication lists, watcher blockers and LBD machinery all
         see traffic. *)
      let len =
        match Random.State.int rand 10 with
        | 0 -> 1
        | 1 | 2 | 3 | 4 -> 2
        | 5 | 6 | 7 -> 3
        | _ -> 4
      in
      let lits =
        List.init len (fun _ ->
            Sat.Lit.make (Random.State.int rand n) ~neg:(Random.State.bool rand))
      in
      clauses := lits :: !clauses
    done;
    (* Every 20th instance is a pigeonhole formula instead. It has its own
       generator and the small instance drawn above is dropped, so every
       other index gets the same instance as without it. *)
    let n, clauses, expected =
      if i mod 20 = 0 then
        let n, php = pigeonhole (Random.State.make [| seed; i |]) in
        (n, php, false)
      else (n, List.rev !clauses, exhaustive_sat n !clauses)
    in
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" n (List.length clauses));
    List.iter
      (fun lits ->
        List.iter
          (fun l -> Buffer.add_string buf (string_of_int (Sat.Lit.to_dimacs l) ^ " "))
          lits;
        Buffer.add_string buf "0\n")
      clauses;
    (* Through the DIMACS text pipeline, as a user would drive it. *)
    match Sat.Dimacs.parse_string (Buffer.contents buf) with
    | Error e -> flag i ("parse error: " ^ e)
    | Ok cnf -> (
        let solver = Sat.Solver.create () in
        if cert then Sat.Solver.start_proof solver;
        Sat.Dimacs.load solver cnf;
        match Sat.Solver.solve solver with
        | Sat.Solver.Sat ->
            if not expected then flag i "solver SAT, enumerator UNSAT"
            else begin
              let model = Sat.Solver.model solver in
              let lit_true l =
                let v = model.(Sat.Lit.var l) in
                if Sat.Lit.is_neg l then not v else v
              in
              if not (List.for_all (List.exists lit_true) clauses) then
                flag i "model does not satisfy instance"
            end
        | Sat.Solver.Unsat ->
            if expected then flag i "solver UNSAT, enumerator SAT"
            else if cert then (
              match Sat.Drat.check (Sat.Solver.proof solver) with
              | Ok () -> ()
              | Error e -> flag i ("DRAT certificate rejected: " ^ e))
        | Sat.Solver.Unknown r ->
            (* No budget: the solver has no business giving up here. *)
            flag i
              ("solver UNKNOWN without a budget: " ^ Sat.Solver.reason_to_string r))
  done;
  List.rev !bad

(** Bounded model checking over {!Rtl.design} values.

    The {!Unroller} lowers a design into an {!Aig.t}, one copy of the
    combinational logic per clock cycle ("frame"), with register values fed
    forward between frames. The {!Engine} bundles unroller, AIG, Tseitin
    emitter and SAT solver, and supports incremental queries: constraints
    may be asserted permanently or passed per-query as assumptions, and the
    unrolling deepens on demand.

    On top of the engine, {!check_safety} implements the classic
    incremental-deepening safety check used by the experiment harness and by
    the QED layers. Counterexamples are extracted from the SAT model and
    replayed through the concrete {!Rtl} simulator, which both produces a
    full waveform and cross-checks the bit-blaster against the simulator on
    every witness. *)

module Unroller : sig
  type t

  val create : ?symbolic_init:bool -> Aig.t -> Rtl.design -> t
  (** [symbolic_init] (default [false]) makes the frame-0 register values
      free inputs instead of the reset constants. *)

  val design : t -> Rtl.design

  val input_bits : t -> string -> frame:int -> Aig.lit array
  (** Bits of an input port at a given cycle (fresh AIG inputs, allocated on
      first use). *)

  val reg_bits : t -> string -> frame:int -> Aig.lit array
  (** Register value at the {e start} of the given cycle. *)

  val expr_bits : t -> Expr.t -> frame:int -> Aig.lit array
  (** Blast an expression over the design's inputs, registers and outputs
      as seen at the given cycle (output names resolve to their defining
      expressions). *)

  val max_frame : t -> int
  (** Highest frame index touched so far, -1 if none. *)

  val find_input : t -> string -> frame:int -> Aig.lit array option
  (** The AIG input bits allocated for a port at a frame, if that port was
      read there; [None] for never-touched (port, frame) pairs. O(1). *)
end

(** {1 Formula-shrinking pipeline}

    Between unrolling and solving, four verdict-preserving simplification
    stages shrink the formula each SAT query sees. Every stage toggles
    independently, so the bench harness can ablate them one at a time. *)

type simplify_config = {
  sc_coi : bool;
      (** cone-of-influence reduction: drop registers/outputs outside the
          property's transitive support before unrolling *)
  sc_rewrite : bool;
      (** AIG rewriting: one- and two-level rules at construction time,
          plus a per-query compaction sweep in monolithic mode *)
  sc_pg : bool;  (** polarity-aware (Plaisted–Greenbaum) Tseitin emission *)
  sc_cnf : bool;
      (** CNF preprocessing: subsumption + self-subsuming resolution (and
          bounded variable elimination in monolithic mode), DRAT-logged *)
}

val default_simplify : simplify_config
(** All four stages on — the default everywhere. *)

val no_simplify : simplify_config
(** All four stages off — the pre-pipeline behaviour, kept for ablation and
    as the differential-fuzzing baseline. *)

(** {1 Resource limits}

    A bundle of the solver-level governance knobs (see {!Sat.Solver}):
    per-query budget, cooperative cancellation token, phase-perturbation
    seed and fault-injection hook. The budget applies to {e each} SAT
    query an engine issues — whole-check caps are the business of
    {!Escalate} policies and [Par] watchdogs. *)
type limits = {
  l_budget : Sat.Solver.budget;
  l_cancel : Sat.Solver.cancel option;
  l_seed : int option;
  l_fault : (Sat.Solver.stats -> Sat.Solver.fault option) option;
  l_portfolio : Sat.Portfolio.config option;
      (** when set with [p_workers > 1], every engine query races a
          clause-sharing portfolio instead of the single master solver *)
}

val no_limits : limits
(** Unbounded, non-cancellable, unseeded, no faults, no portfolio — the
    default. *)

val limits :
  ?budget:Sat.Solver.budget ->
  ?cancel:Sat.Solver.cancel ->
  ?seed:int ->
  ?fault:(Sat.Solver.stats -> Sat.Solver.fault option) ->
  ?portfolio:Sat.Portfolio.config ->
  unit ->
  limits

(** Cone-of-influence reduction at the design level. *)
module Coi : sig
  type stats = {
    coi_regs_before : int;
    coi_regs_after : int;
    coi_outputs_before : int;
    coi_outputs_after : int;
  }

  val reduce : Rtl.design -> props:Expr.t list -> Rtl.design * stats
  (** [reduce design ~props] keeps exactly the registers and outputs in the
      transitive support of [props] (name-level fixpoint through next-state
      functions and output definitions). All inputs are kept, so witnesses
      of the reduced design replay on the original with the same input
      valuations. Returns the design unchanged when nothing is droppable. *)

  val no_reduction : Rtl.design -> stats
end

(** A witness (counterexample) to a bounded check. *)
type witness = {
  w_length : int;  (** number of cycles, frames [0 .. w_length - 1] *)
  w_initial : Rtl.valuation;  (** register state at frame 0 *)
  w_inputs : Rtl.valuation array;  (** per-frame input values *)
  w_trace : Rtl.trace_step list;  (** simulator replay of the witness *)
}

val pp_witness : Format.formatter -> witness -> unit

exception Certification_failed of string
(** Raised by a certifying engine when an UNSAT answer's DRAT certificate
    is rejected by the independent checker — i.e. the solver claimed
    "verified" but could not prove it. This must never happen; the fuzz
    harness treats it as a verifier bug. *)

module Engine : sig
  type t

  (** Per-engine totals of the simplification pipeline, accumulated over
      every query (including solvers retired by monolithic-mode resets). *)
  type simp_stats = {
    ss_queries : int;  (** SAT queries issued *)
    ss_coi_regs_before : int;  (** registers before COI (set by the drivers) *)
    ss_coi_regs_after : int;
    ss_rewrite_hits : int;  (** AIG rewrite rule applications *)
    ss_compact_in : int;  (** AND nodes entering per-query compaction (sum) *)
    ss_compact_out : int;  (** AND nodes surviving it (sum) *)
    ss_clauses_emitted : int;  (** Tseitin clauses actually emitted *)
    ss_clauses_plain : int;  (** what plain Tseitin would have emitted *)
    ss_single_pol : int;  (** AND nodes emitted in a single polarity *)
    ss_pre : Sat.Solver.presult;  (** CNF-preprocessing totals *)
    ss_t_rewrite : float;  (** CPU seconds in rewriting/compaction *)
    ss_t_cnf : float;  (** CPU seconds in CNF preprocessing *)
  }

  val pp_simp_stats : Format.formatter -> simp_stats -> unit

  (** Three-valued query result: SAT with a replayed witness, certified
      UNSAT, or gave up under the engine's {!limits}. *)
  type check_result =
    | Cex of witness
    | Unreachable
    | Undecided of Sat.Solver.unknown_reason

  val create :
    ?symbolic_init:bool ->
    ?certify:bool ->
    ?simplify:simplify_config ->
    ?mono:bool ->
    ?limits:limits ->
    Rtl.design ->
    t
  (** [certify] (default [false]) turns on DRAT proof logging in the
      underlying solver and checks a certificate for {e every} UNSAT
      answer of {!check}, raising {!Certification_failed} on rejection.
      SAT answers are independently validated by the simulator replay in
      witness extraction, so with [certify:true] both verdict polarities
      are cross-checked.

      [simplify] (default {!default_simplify}) selects the pipeline stages
      this engine applies; [sc_coi] is handled by {!check_safety}, not
      here.

      [mono] (default [false]) puts the engine in monolithic mode: the AIG
      and unrolling persist across queries (so the design is only blasted
      once), but every {!check} runs on a fresh solver. [assert_lit] then
      records the literal for replay instead of constraining the current
      solver; with [sc_rewrite] each query additionally sweeps the graph
      down to the cones it needs, and with [sc_cnf] bounded variable
      elimination is enabled (safe only because each solver is one-shot). *)

  val unroller : t -> Unroller.t
  val graph : t -> Aig.t
  val solver : t -> Sat.Solver.t

  val assert_lit : t -> Aig.lit -> unit
  (** Permanently constrain the given AIG literal to true. *)

  val check : t -> assumptions:Aig.lit list -> check_result
  (** SAT query under assumptions and the engine's {!limits}; on SAT,
      extract and replay the witness over all frames unrolled so far.
      [Undecided] leaves the engine usable: a follow-up [check] (e.g.
      after growing the budget via a fresh engine, or simply retrying an
      incremental engine) resumes from the accumulated solver state. *)

  val model_lit : t -> Aig.lit -> bool
  (** Value of an AIG literal in the most recent SAT model (valid after
      [check] returned [Some _] and before the next query). Unconstrained
      literals read as [false]. *)

  val certify_unsat : t -> assumptions:Aig.lit list -> (unit, string) result
  (** Explicitly re-check the DRAT certificate of the most recent UNSAT
      answer (which must have used exactly these assumptions). Requires a
      [certify:true] engine. [check] already does this automatically; this
      entry point exists for tests and tooling. *)

  val certified_unsats : t -> int
  (** Number of UNSAT answers certified so far on this engine. *)

  val stats : t -> Sat.Solver.stats
  val cnf_size : t -> int * int
  (** [(vars, clauses)] currently in the solver. *)

  val simp_stats : t -> simp_stats

  val note_coi : t -> before:int -> after:int -> unit
  (** Record COI figures (register counts) in this engine's {!simp_stats};
      called by drivers that reduced the design before creating the
      engine. *)
end

(** Why (and where) a bounded check gave up. *)
type unknown_info = {
  un_reason : Sat.Solver.unknown_reason;
  un_bound : int;  (** the cycle whose query was undecided *)
}

type outcome =
  | Holds of int  (** the invariant holds for all traces of up to n cycles *)
  | Violated of witness
  | Unknown of unknown_info
      (** a query gave up under the {!limits}; cycles below [un_bound]
          were decided clean *)

val check_safety :
  ?symbolic_init:bool ->
  ?certify:bool ->
  ?assumes:Expr.t list ->
  ?simplify:simplify_config ->
  ?mono:bool ->
  ?limits:limits ->
  ?stats:(Engine.simp_stats -> unit) ->
  design:Rtl.design ->
  invariant:Expr.t ->
  depth:int ->
  unit ->
  outcome * Sat.Solver.stats
(** Incremental-deepening BMC: check that the 1-bit [invariant] (over
    inputs, registers and outputs) holds at every cycle of every trace of
    length <= [depth], under the 1-bit [assumes] constraints applied at
    every cycle. With [certify:true] every UNSAT bound along the way is
    DRAT-certified (so a [Holds] verdict is fully certificate-backed);
    raises {!Certification_failed} on a rejected certificate.

    [simplify] (default {!default_simplify}) selects the formula-shrinking
    stages; under COI, counterexamples are re-anchored to the original
    design (out-of-cone registers at their reset values — or zero under
    symbolic init — and the trace re-simulated), so witnesses always speak
    about the design passed in. [mono] (default [false]) runs every bound
    as one monolithic query on a fresh solver (see {!Engine.create}); the
    design blasting is still shared across bounds, and the answers are
    the same. It exists for the incremental-vs-monolithic ablation
    (experiment R-A2). [stats], when given, receives the engine's pipeline
    totals just before the result is returned. *)

(** {1 Retry escalation}

    Generic policy for re-running an undecided check with exponentially
    grown budgets and perturbed configurations. The perturbations —
    simplification on/off, incremental vs monolithic lane, a fresh restart
    seed — are all verdict-preserving, so any attempt that decides gives
    {e the} answer; varying them merely diversifies the search in the hope
    that one trajectory fits inside the budget. Every attempt is logged,
    so a final verdict carries its full escalation path. *)
module Escalate : sig
  type policy = {
    max_attempts : int;  (** total attempts, including the first *)
    growth : float;  (** budget multiplier between attempts *)
    total_seconds : float option;
        (** cumulative wall-clock cap over all attempts; each attempt's
            per-query [max_seconds] is clamped to the time remaining *)
    perturb : bool;  (** vary simplify / mono lane / seed across retries *)
  }

  val default_policy : policy
  (** 4 attempts, 4x growth, no total cap, perturbation on. *)

  (** One attempt as actually run: its effective configuration, how long
      it took, and [None] for its reason when it decided. *)
  type attempt = {
    at_index : int;
    at_budget : Sat.Solver.budget;
    at_simplify : simplify_config;
    at_mono : bool;
    at_seed : int option;
    at_seconds : float;
    at_reason : string option;
  }

  val pp_attempt : Format.formatter -> attempt -> unit

  (** Configuration handed to the check runner for one attempt. *)
  type config = {
    ec_limits : limits;
    ec_simplify : simplify_config;
    ec_mono : bool;
  }

  val run :
    ?policy:policy ->
    limits:limits ->
    simplify:simplify_config ->
    mono:bool ->
    unknown_of:('a -> string option) ->
    (config -> 'a) ->
    'a * attempt list
  (** [run ~limits ~simplify ~mono ~unknown_of f] calls [f] with the base
      configuration; while [unknown_of] reports a giving-up reason it
      retries with the budget scaled by [growth] and (when [perturb]) a
      perturbed configuration, until an attempt decides, [max_attempts]
      or [total_seconds] is exhausted, or the cancellation token fires.
      Returns the last result and the attempt log (oldest first). *)

  val run_racing :
    ?policy:policy ->
    ?jobs:int ->
    limits:limits ->
    simplify:simplify_config ->
    mono:bool ->
    unknown_of:('a -> string option) ->
    (config -> 'a) ->
    'a * attempt list
  (** Like {!run}, but every rung of the ladder races concurrently on its
      own domain, each with the budget and perturbed configuration the
      sequential schedule would have given it. The first rung to decide
      cancels the others (the caller's own cancel token and fault hook
      stay composed in); with every knob verdict-preserving, the lowest
      decided rung is returned. [Unknown] only if all rungs exhaust.
      [jobs] caps the number of racing rungs (default [max_attempts]);
      with a cap of 1 this is exactly {!run}. Racing rungs never nest a
      portfolio ([l_portfolio] is dropped inside rungs). The attempt log
      has one entry per rung in rung order, with wall-clock times
      overlapping rather than consecutive. *)
end

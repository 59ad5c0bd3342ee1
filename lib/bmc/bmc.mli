(** Bounded model checking over {!Rtl.design} values.

    The {!Unroller} lowers a design into an {!Aig.t}, one copy of the
    combinational logic per clock cycle ("frame"), with register values fed
    forward between frames. The {!Engine} bundles unroller, AIG, Tseitin
    emitter and SAT solver: constraints may be asserted permanently or
    passed per-query as assumptions, and the unrolling deepens on demand.
    Queries run on one incremental solver until one of them gets hard,
    and on a fresh solver each from then on.

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

    Between unrolling and solving, three verdict-preserving simplification
    stages shrink the formula each SAT query sees: AIG rewriting (one- and
    two-level rules applied as the graph is built), polarity-aware
    (Plaisted–Greenbaum) Tseitin emission with if-then-else and XOR gate
    recognition (see {!Aig.Cnf}), and CNF preprocessing of each fresh
    solver, once, before its one query (subsumption, self-subsuming
    resolution and bounded variable elimination, DRAT-logged; incremental
    queries are not preprocessed). Every engine runs all three; only the
    differential reference lane ([?plain] on {!Engine.create} and
    {!check_safety}) runs none. There is no separate cone-of-influence
    stage: the {!Unroller} blasts a register only when something reads it
    and the Tseitin emitter emits only the nodes reached from an assert or
    an assumption, so each query already sees just the cone of its
    property. *)

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
      every query (including solvers retired by fresh-solver resets). *)
  type simp_stats = {
    ss_queries : int;  (** SAT queries issued *)
    ss_rewrite_hits : int;  (** construction-time AIG rewrite rule applications *)
    ss_clauses_emitted : int;  (** Tseitin clauses actually emitted *)
    ss_clauses_plain : int;  (** what plain Tseitin would have emitted *)
    ss_single_pol : int;  (** nodes emitted in a single polarity *)
    ss_gates : int;  (** nodes encoded as one if-then-else gate (PG only) *)
    ss_pre : Sat.Solver.presult;
        (** CNF-preprocessing totals over every fresh solver; all zero for
            an engine that stayed incremental *)
  }

  val pp_simp_stats : Format.formatter -> simp_stats -> unit

  (** Three-valued query result: SAT with a replayed witness, certified
      UNSAT, or gave up under the engine's budget. *)
  type check_result =
    | Cex of witness
    | Unreachable
    | Undecided of Sat.Solver.unknown_reason

  val create :
    ?symbolic_init:bool ->
    ?certify:bool ->
    ?plain:bool ->
    ?mono:bool ->
    ?budget:Sat.Solver.budget ->
    Rtl.design ->
    t
  (** [certify] (default [false]) turns on DRAT proof logging in the
      underlying solver and checks a certificate for {e every} UNSAT
      answer of {!check}, raising {!Certification_failed} on rejection.
      SAT answers are independently validated by the simulator replay in
      witness extraction, so with [certify:true] both verdict polarities
      are cross-checked.

      [plain] (default [false]) turns the whole pipeline off: no AIG
      rewriting, the per-node reference Tseitin encoding and no
      preprocessing. It is the test-only reference the differential lanes
      compare the pipeline against (the fuzz [simplify] oracle, the unit
      tests); the answers are the same either way.

      Solving path: a new engine answers its queries on one incremental
      solver. After a query whose search takes more than 500 conflicts (a
      fixed constant), every later {!check} runs on a fresh solver; the
      AIG and unrolling persist (so the design is only blasted once) and
      the permanent asserts are replayed. A fresh solver emits from the
      same graph, lazily, so it only receives the cones the query reaches;
      unless [plain], it is preprocessed once, with bounded variable
      elimination (safe only because the solver is one-shot). The
      incremental solver is never preprocessed. [mono] (default [false])
      starts the engine on fresh solvers from the first query; it exists
      for the differential lanes (the fuzz [bmc] oracle, bench A2, the unit
      tests), and the answers are the same either way.

      [budget] (default {!Sat.Solver.no_budget}) caps {e each} SAT query
      the engine runs, not the whole check: a query that exhausts it
      answers [Undecided], and nothing retries it. *)

  val unroller : t -> Unroller.t
  val graph : t -> Aig.t

  val assert_lit : t -> Aig.lit -> unit
  (** Permanently constrain the given AIG literal to true. The engine
      records it for replay on fresh solvers. *)

  val check : t -> assumptions:Aig.lit list -> check_result
  (** SAT query under assumptions and the engine's budget; on SAT,
      extract and replay the witness over all frames unrolled so far.
      [Undecided] leaves the engine usable: a follow-up [check] resumes
      from the accumulated solver state, or starts a fresh solver if the
      undecided query took more than 500 conflicts.

      With tracing on, the [bmc.query] span end carries
      [("solver", "incremental" | "fresh")]: the path that answered. *)

  val model_lit : t -> Aig.lit -> bool
  (** Value of an AIG literal in the most recent SAT model (valid after
      [check] returned [Cex _] and before the next query). A node with no
      SAT variable, such as the inner node of an if-then-else gate, is
      evaluated from its fanins, memoised per answer; an input no query
      reached is unconstrained and reads [false]. *)

  val certified_unsats : t -> int
  (** Number of UNSAT answers certified so far on this engine. *)

  val stats : t -> Sat.Solver.stats
  (** Search counters ([conflicts], [decisions], [propagations],
      [restarts]) summed over every solver this engine has used; the
      database sizes are the live solver's. *)

  val cnf_size : t -> int * int
  (** [(vars, clauses)] currently in the solver. *)

  val simp_stats : t -> simp_stats
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
      (** a query gave up under the per-query [budget]; cycles below [un_bound]
          were decided clean *)

val check_safety :
  ?symbolic_init:bool ->
  ?certify:bool ->
  ?assumes:Expr.t list ->
  ?plain:bool ->
  ?mono:bool ->
  ?budget:Sat.Solver.budget ->
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

    [plain] (default [false]) runs the reference encoding without the
    formula-shrinking stages, as on {!Engine.create}. Registers outside the property's cone are never blasted, yet
    the witness trace is simulated on the whole design, so it shows every
    register. One {!Engine} serves every bound, so the
    solving path switches as {!Engine.create} describes; [mono] (default
    [false]) runs every bound on a fresh solver from the first query, for
    the default-vs-fresh ablation (experiment A2). The answers are the
    same. [stats], when given, receives the engine's pipeline totals just
    before the result is returned. *)

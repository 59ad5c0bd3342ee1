(** Differential fuzzing of the verification stack.

    The verifier's verdicts are only as trustworthy as its kernels — the
    expression evaluator, the bit-blaster, the hash-consed AIG and the
    CDCL solver all sit between a design and a "Proved"/"Detected"
    answer. This module generates seeded random but
    well-typed RTL transition systems and runs every artifact through
    {e independent} implementation paths, demanding bit-exact agreement:

    - {b sim-vs-unroll}: the cycle-accurate {!Rtl} simulator against the
      BMC unrolling of the same design evaluated on the same concrete
      stimulus ({!Aig.eval} over the unrolled graph);
    - {b eval-vs-blast}: concrete {!Expr.eval} against the bit-blasted
      {!Expr.blast} interpretation, expression by expression;
    - {b strash}: AIG construction with structural hashing on against the
      naive construction with hashing off;
    - {b bmc-vs-sim}: BMC verdicts against simulator replay — counter-
      examples must violate the invariant exactly at their last cycle, and
      invariants that are true by construction must come back [Holds];
      with certification on, every UNSAT bound is DRAT-checked
      ({!Sat.Drat}).

    Failing designs are shrunk greedily to a (locally) minimal reproducer
    and written to a corpus directory together with the seed that found
    them. Everything is deterministic in the seed. *)

(** {1 Generation} *)

module Gen : sig
  val design : Random.State.t -> Rtl.design
  (** A random well-typed synchronous design (guaranteed to pass
      {!Rtl.validate} by construction): 1..3 inputs, registers and
      outputs, widths 1..8, expressions of depth 3 — big enough to
      exercise every kernel, small enough to run hundreds per second. The
      oracles of {!run} simulate 6 cycles and unroll 3 bounds. *)

  val expr : Random.State.t -> vars:Expr.var list -> width:int -> depth:int -> Expr.t
  (** A random well-typed expression of the given width over the given
      variables. *)

  val valuation : Random.State.t -> Expr.var list -> Rtl.valuation
  (** Uniform random values for every variable. *)

  val true_invariant : Random.State.t -> vars:Expr.var list -> Expr.t
  (** A 1-bit expression that is true in every state {e by algebra} (e.g.
      [a + b = b + a], [(a & b) <= a]) but not syntactically trivial, so
      proving it exercises real SAT work at every BMC bound. *)
end

(** {1 Oracles}

    Each oracle returns [Ok ()] on agreement and [Error msg] pinpointing
    the first disagreement. Oracles draw their stimulus from the supplied
    RNG; reseed to replay. *)

module Oracle : sig
  val same_outcome :
    oracle:string -> lane:string -> Bmc.outcome -> Bmc.outcome -> (unit, string) result
  (** [same_outcome ~oracle ~lane reference got] is the agreement every
      differential oracle below demands of a lane: the same proved bound,
      or counterexamples of the same length. Anything else, including
      [Unknown] on either side, is an [Error] naming [oracle] and [lane]
      and printing both outcomes. *)

  val sim_vs_unroll : cycles:int -> Random.State.t -> Rtl.design -> (unit, string) result
  val eval_vs_blast : Random.State.t -> Rtl.design -> (unit, string) result
  val strash_on_vs_off : Random.State.t -> Rtl.design -> (unit, string) result

  val bmc_vs_sim :
    ?cert:bool -> depth:int -> Random.State.t -> Rtl.design -> (int, string) result
  (** On success, the number of UNSAT bounds that were DRAT-certified
      (0 when [cert] is false). *)

  val simplify_on_vs_off :
    ?cert:bool -> depth:int -> Random.State.t -> Rtl.design -> (int, string) result
  (** The formula-shrinking pipeline is verdict-invisible: the same safety
      check on the plain reference engine ([Bmc.check_safety ~plain:true])
      and on the default engine must agree on the outcome (same proved
      bound or same counterexample length). With [cert], the default run
      is DRAT-certified at every UNSAT bound; on success, returns the
      number of certified bounds. *)

  val budget_caps :
    ?cert:bool -> depth:int -> Random.State.t -> Rtl.design -> (int, string) result
  (** Verdict invariance under per-query budgets. Three trials re-run the
      reference safety check, each under a conflict cap drawn from
      [rand] uniformly in [0 .. 2c + 1], c the reference's total
      conflicts; each trial's
      outcome must equal the unbudgeted reference or be [Unknown] — never
      the opposite decided verdict — with DRAT certification active
      throughout when [cert]. On success, returns the number of
      DRAT-certified bounds of the reference run. *)

  val tracing_on_vs_off :
    ?cert:bool -> depth:int -> Random.State.t -> Rtl.design -> (int, string) result
  (** Observability is verdict-invisible: the same safety check run with
      {!Obs} tracing enabled must decide exactly the untraced verdict
      (same proved bound or same counterexample length). The emitted trace
      must additionally pass {!Obs.Trace.check} (balanced spans, monotone
      per-track timestamps, strictly increasing sequence numbers) and
      round-trip through {!Obs.Trace.to_chrome} and
      {!Obs.Trace.parse_chrome} with every event's seq, name, kind and args
      unchanged. On
      success, returns the number of certified bounds of the reference
      run. *)

  val checkpoint_resume :
    ?cert:bool -> depth:int -> Random.State.t -> Rtl.design -> (int, string) result
  (** Crash/resume is verdict-invisible: a small campaign of safety checks
      run and journaled by the serial campaign runner ([Dist.run
      ~workers:1], as [gqed campaign --workers 1]) is killed at a random
      record boundary (sometimes mid-append, leaving a torn tail via
      {!Persist.Journal.chop}) and resumed; the resumed verdict matrix
      must equal the uninterrupted run bit-for-bit, and exactly the cells
      whose decided record survived the crash come back [r_warm].
      Journaled [Unknown]s are re-attempted on resume, never skipped. With [cert] the clean
      reference queries DRAT-certify their UNSAT bounds; on success,
      returns the number of certified bounds of the reference run. *)

  val dist_kill_worker :
    depth:int -> Random.State.t -> Rtl.design -> (unit, string) result
  (** Killing a worker process only costs re-work: a small safety-check
      campaign sharded across 2 worker processes via {!Dist.run} is
      SIGKILLed at a random ack (sometimes also tearing the journal's
      last record) and resumed; the resumed matrix must equal an in-process
      reference cell-for-cell, exactly the cells whose decided record
      survived come back [r_warm], and journaled [Unknown]s are
      re-solved. The
      random design travels to the re-exec'd workers through a marshalled
      cell table on disk, exercising the solver-by-registered-name path
      end to end. Any binary that runs this oracle must have called
      {!Dist.worker_entry} first thing in [main]. *)
end

(** {1 Shrinking} *)

val shrink : failing:(Rtl.design -> bool) -> Rtl.design -> Rtl.design
(** Greedy structural shrinking: repeatedly drop outputs, registers and
    inputs and replace subexpressions by constants or their own children,
    keeping any smaller design for which [failing] still holds, until a
    fixpoint (or a trial budget) is reached. *)

(** {1 Driver} *)

type failure = {
  case : int;  (** index of the failing case within the run *)
  oracle : string;
  message : string;
  design : Rtl.design;  (** the shrunk reproducer *)
  file : string option;  (** corpus file, when a directory was given *)
}

type summary = {
  cases : int;
  failures : failure list;
  certified_unsats : int;  (** DRAT certificates checked and accepted *)
}

val run :
  ?out_dir:string ->
  ?progress:(int -> unit) ->
  seed:int ->
  count:int ->
  cert:bool ->
  unit ->
  summary
(** Generate [count] designs from [seed] and run all oracles on each.
    Failures are shrunk and, when [out_dir] is given, written there as
    reproducible text files. Case [i] depends only on [(seed, i)].
    [progress] is called after each case. *)

val design_to_string : Rtl.design -> string
(** Human-readable dump used for corpus files (inputs, registers with
    reset values and next-state functions, outputs). *)

(** {1 DIMACS-level fuzz}

    The solver-only half of the harness (promoted out of the SAT test
    suite): seeded random CNF instances solved through the DIMACS text
    pipeline and cross-checked against an exhaustive enumerator that
    shares no code with the solver. SAT answers are validated against the
    model; with [cert] set, UNSAT answers must carry an accepted DRAT
    certificate. Every 20th instance (index divisible by 20) is instead a
    pigeonhole formula PHP(n+1, n), n in {6, 7, 8}, with variables renamed
    and polarities flipped at random, expected UNSAT. The two larger sizes
    take thousands of conflicts, so learnt-database reduction and arena
    compaction run. It
    comes from its own generator keyed on [(seed, index)], so the other
    instances are the same as without it. Returns the list of (instance
    index, complaint) — empty when the solver survived. *)

val dimacs :
  ?max_vars:int -> seed:int -> count:int -> cert:bool -> unit -> (int * string) list

val exhaustive_sat : int -> Sat.Lit.t list list -> bool
(** The reference enumerator used by {!dimacs}: exhaustive backtracking
    over all assignments of [n] variables with clause-falsification
    pruning. Exposed so tests can cross-validate it against other
    reference implementations. *)

(** CDCL SAT solver.

    A MiniSat-style conflict-driven clause-learning solver: two-watched-
    literal propagation, first-UIP clause learning with basic conflict-clause
    minimization, VSIDS branching with phase saving, Luby restarts and
    learnt-clause database reduction that drops high-LBD ("glue") clauses
    first, breaking ties by clause activity. Clauses live in one flat
    integer arena that is compacted as clauses are deleted, and literal
    values in one array indexed by literal (both polarities written on
    assignment); see the header of [solver.ml] for the layout. It solves
    incrementally: clauses may be added between [solve] calls, and each
    call may pass assumptions (temporary unit hypotheses).

    This is the decision engine underneath the bounded model checker: the
    bit-blaster produces CNF, the BMC layer asks for a satisfying assignment
    of the unrolled design + property negation. *)

type t

(** {1 Resource governance}

    Every [solve] call may run under a {!budget} — optional caps on
    conflicts and wall-clock seconds. Caps are counted relative to the
    start of the call, checked on the cheap boundaries of the search loop
    (the first check runs before any propagation, so a cap of 0 conflicts
    always fires), and exhausting either returns {!Unknown} with the
    reason that fired. An [Unknown] answer
    leaves the solver fully reusable: the trail is backtracked to level 0,
    learnt clauses are kept, and a follow-up [solve] (with a larger
    budget, or none) resumes from the accumulated state. *)

type budget = { max_conflicts : int option; max_seconds : float option }

val no_budget : budget
(** All caps absent: [solve] runs to completion. *)

val budget : ?conflicts:int -> ?seconds:float -> unit -> budget

type unknown_reason = Out_of_conflicts | Out_of_time
(** Why a [solve] call gave up. *)

val reason_to_string : unknown_reason -> string

type result = Sat | Unsat | Unknown of unknown_reason

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;  (** currently in the learnt database *)
  clauses : int;  (** problem clauses currently in the database *)
  vars : int;
}

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val nvars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause over existing variables. May only be called when the solver
    is at decision level 0 (i.e. outside [solve]). Tautologies are dropped
    and duplicate/false-at-level-0 literals removed. Adding the empty clause
    (or deriving one) makes the solver permanently UNSAT. A literal over a
    variable that {!preprocess} eliminated first restores that variable. *)

val ok : t -> bool
(** [false] once the clause set is known UNSAT at level 0; further [solve]
    calls return [Unsat] immediately. *)

val solve :
  ?assumptions:Lit.t list ->
  ?budget:budget ->
  t ->
  result
(** [budget] caps are relative to this call (see {!budget}). An [Unknown]
    answer reports partial progress through {!stats} and leaves the solver
    reusable. An assumption over an eliminated variable restores it first
    (see {!preprocess}). *)

val value : t -> Lit.t -> bool
(** Model value of a literal after a [Sat] answer. Raises [Failure] if the
    last call did not answer [Sat]. *)

val model : t -> bool array
(** Model as an array indexed by variable, after a [Sat] answer. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

(** {1 Preprocessing}

    In-place CNF simplification between clause addition and search (see
    {!Simplify}): subsumption, self-subsuming resolution and bounded
    variable elimination. [Simplify.run] returns what the pass did, its
    DRAT steps included; the solver installs that result and, when proof
    logging is on, appends those steps to its stream unchanged, so
    certificates keep checking. *)

type presult = {
  pre_clauses_before : int;
  pre_clauses_after : int;
  pre_subsumed : int;
  pre_strengthened : int;
  pre_eliminated : int;  (** variables eliminated *)
  pre_resolvents : int;
  pre_units : int;
  pre_restored : int;
      (** variables restored since the previous call (see {!preprocess}) *)
}

val preprocess : ?frozen:Lit.t list -> t -> presult
(** Simplify the whole problem clause database at decision level 0 and
    return this call's counters. Each call is another full pass, and
    clauses and queries may follow it; pass every literal the next [solve]
    assumes in [frozen], so its variable survives. Variable elimination
    only preserves satisfiability, so a clause, assumption or frozen
    literal over an eliminated variable first restores it: its saved
    clauses return (as DRAT [Input] events), and transitively those of
    every eliminated variable they mention. A pass deletes the learnt
    clauses over the variables it eliminates, and starts the branching
    heuristic (activities, saved phases) over. Eliminated variables keep
    valid values in the model of a [Sat] answer (reconstructed from the
    clauses they were resolved out of). *)

(** {1 Proof logging}

    With logging enabled, the solver records a {!Drat} event stream —
    problem clauses, derived (learnt/simplified) clauses and deletions — so
    that any [Unsat] answer can be certified by the independent
    {!Drat.check} replay: pass the stream, plus the assumptions of the
    UNSAT [solve] call (if any). [Sat] answers are certified by evaluating
    the model instead; see {!value}/{!model}. *)

val start_proof : t -> unit
(** Enable DRAT logging. Must be called before the first {!add_clause};
    raises [Invalid_argument] otherwise. Logging costs one copied clause
    per addition/learn/delete event. *)

val proof : t -> Drat.proof
(** The events logged so far, in chronological order. The stream grows
    monotonically across incremental [add_clause]/[solve] calls, so a
    snapshot taken after an [Unsat] answer certifies exactly the clause set
    added up to that point. *)

(** CDCL SAT solver.

    A MiniSat-style conflict-driven clause-learning solver: two-watched-
    literal propagation, first-UIP clause learning with basic conflict-clause
    minimization, VSIDS branching with phase saving, Luby restarts and
    activity-based learnt-clause database reduction. It solves incrementally:
    clauses may be added between [solve] calls, and each call may pass
    assumptions (temporary unit hypotheses) whose unsatisfiable core is
    available after an UNSAT answer.

    This is the decision engine underneath the bounded model checker: the
    bit-blaster produces CNF, the BMC layer asks for a satisfying assignment
    of the unrolled design + property negation. *)

type t

(** {1 Resource governance}

    Every [solve] call may run under a {!budget} — optional caps on
    conflicts, propagations, decisions, wall-clock seconds and the memory
    footprint of the learnt-clause database — and under a cooperative
    {!cancel} token settable from another domain. Caps are counted
    relative to the start of the call, checked on the cheap boundaries of
    the search loop, and exhausting any of them (or a set token) returns
    {!Unknown} with the first reason that fired. An [Unknown] answer
    leaves the solver fully reusable: the trail is backtracked to level 0,
    learnt clauses are kept, and a follow-up [solve] (with a larger
    budget, or none) resumes from the accumulated state. *)

type budget = {
  max_conflicts : int option;
  max_propagations : int option;
  max_decisions : int option;
  max_seconds : float option;
  max_learnt_mb : float option;  (** estimated learnt-DB footprint *)
}

val no_budget : budget
(** All caps absent: [solve] runs to completion. *)

val budget :
  ?conflicts:int ->
  ?propagations:int ->
  ?decisions:int ->
  ?seconds:float ->
  ?learnt_mb:float ->
  unit ->
  budget

val budget_scale : budget -> float -> budget
(** Multiply every finite cap by the factor (escalation helper). Absent
    caps stay absent. *)

type unknown_reason =
  | Out_of_conflicts
  | Out_of_propagations
  | Out_of_decisions
  | Out_of_time
  | Out_of_memory_budget
  | Cancelled
(** Why a [solve] call gave up. [Cancelled] covers both a set {!cancel}
    token and an injected [Fault_cancel]. *)

val reason_to_string : unknown_reason -> string

type cancel = bool Atomic.t
(** Cooperative cancellation token. Any domain may {!cancel} it; the
    solver polls it on search-loop boundaries. The same token type is
    shared with [Par] watchdogs — no dependency needed, it is a plain
    [bool Atomic.t]. *)

val cancel_token : unit -> cancel
val cancel : cancel -> unit
val cancelled : cancel -> bool

(** {1 Fault injection}

    A test hook: when installed, the hook is consulted at every search-loop
    boundary (and once at [solve] entry) and may fire a fault mid-solve.
    Faults model resource exhaustion ([Fault_exhaust]), external
    cancellation ([Fault_cancel]) and allocation pressure ([Fault_alloc],
    which allocates the given number of words and continues). The first
    two turn the answer into [Unknown]; none may flip a [Sat]/[Unsat]
    verdict — the fuzz harness asserts exactly that. *)

type fault =
  | Fault_exhaust of unknown_reason
  | Fault_cancel
  | Fault_alloc of int

type result = Sat | Unsat | Unknown of unknown_reason

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;  (** currently in the learnt database *)
  clauses : int;  (** problem clauses currently in the database *)
  vars : int;
  clauses_exported : int;  (** learnt clauses handed to the export hook *)
  clauses_imported : int;  (** foreign clauses installed via the import hook *)
}

val set_fault_hook : t -> (stats -> fault option) option -> unit
(** Install ([Some]) or clear ([None]) the fault hook. *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val nvars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause over existing variables. May only be called when the solver
    is at decision level 0 (i.e. outside [solve]). Tautologies are dropped
    and duplicate/false-at-level-0 literals removed. Adding the empty clause
    (or deriving one) makes the solver permanently UNSAT. *)

val ok : t -> bool
(** [false] once the clause set is known UNSAT at level 0; further [solve]
    calls return [Unsat] immediately. *)

val solve :
  ?assumptions:Lit.t list ->
  ?budget:budget ->
  ?cancel:cancel ->
  ?seed:int ->
  t ->
  result
(** [budget] caps are relative to this call (see {!budget}); [cancel] is
    polled cooperatively; [seed] perturbs the saved-phase polarities
    before searching, diversifying the restart trajectory across retries
    without affecting the verdict. An [Unknown] answer reports partial
    progress through {!stats} and leaves the solver reusable. *)

val value : t -> Lit.t -> bool
(** Model value of a literal after a [Sat] answer. Raises [Failure] if the
    last call did not answer [Sat]. *)

val model : t -> bool array
(** Model as an array indexed by variable, after a [Sat] answer. *)

val unsat_assumptions : t -> Lit.t list
(** After an [Unsat] answer to a [solve] with assumptions: a subset of the
    assumptions that is already unsatisfiable together with the clauses
    (an "unsat core" over assumptions). Empty if the clause set itself is
    UNSAT. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

(** {1 Preprocessing}

    In-place CNF simplification between clause addition and search (see
    {!Simplify}): subsumption, self-subsuming resolution and — when [elim]
    is set — bounded variable elimination. Everything is mirrored into the
    DRAT stream when proof logging is on, so certificates keep checking. *)

type presult = {
  pre_clauses_before : int;
  pre_clauses_after : int;
  pre_subsumed : int;
  pre_strengthened : int;
  pre_eliminated : int;  (** variables eliminated (with [elim]) *)
  pre_resolvents : int;
  pre_units : int;
}

val preprocess : ?elim:bool -> ?frozen:Lit.t list -> t -> presult
(** Simplify the problem clause database at decision level 0. Subsumption
    and strengthening are equivalence-preserving, so the call is safe in
    incremental use (more clauses may be added afterwards); repeated calls
    only reconsider clauses added since the previous one.

    [elim] (default [false]) additionally applies bounded variable
    elimination, which only preserves satisfiability: enable it solely
    when no further clauses will be added over existing variables, and
    pass every literal to be assumed in the upcoming [solve] in [frozen]
    so its variable survives. Eliminated variables keep valid values in
    the model of a later [Sat] answer (reconstructed from the clauses they
    were resolved out of); adding a clause over one raises
    [Invalid_argument]. *)

val preprocess_totals : t -> presult
(** Counters accumulated over every {!preprocess} call on this solver. *)

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

val proof_logging : t -> bool

val proof : t -> Drat.proof
(** The events logged so far, in chronological order. The stream grows
    monotonically across incremental [add_clause]/[solve] calls, so a
    snapshot taken after an [Unsat] answer certifies exactly the clause set
    added up to that point. *)

val stamped_proof : t -> (int * Drat.event) list
(** Like {!proof} but each event carries the stamp it was logged under
    (see {!set_proof_clock}). Without a clock every stamp is [0]. *)

val set_proof_clock : t -> int Atomic.t option -> unit
(** Share a proof clock between solvers. When set, every logged event is
    stamped with [Atomic.fetch_and_add clock 1] — a causally consistent
    order across domains: a clause published through an {!set_export_hook}
    ring carries a smaller stamp than any consumer's re-derivation of it,
    because the ring's [Atomic] operations order the two logging calls.
    {!Portfolio} merges per-worker streams by stamp into one checkable
    DRAT certificate. *)

(** {1 Clause sharing and diversification}

    The hooks underneath {!Portfolio}: a solver racing on a shared CNF
    exports its good learnt clauses and imports its peers'. Both hooks are
    called from the solver's own domain — any cross-domain plumbing (ring
    buffers) lives entirely in the hook closures. *)

val set_export_hook : t -> (Lit.t array -> lbd:int -> bool) option -> unit
(** Called once per learnt clause, right after it is recorded, with a
    private copy of the literals and the clause's LBD. Return [true] if
    the clause was taken (counted in [clauses_exported]). *)

val set_import_hook : t -> (unit -> Lit.t array list) option -> unit
(** Called at every restart boundary (and at [solve] entry), at decision
    level 0. Returned clauses are installed as learnt clauses; each must
    be a logical consequence of the clause set this solver was loaded
    with (true for any peer's learnt clause over the same CNF). Clauses
    mentioning unknown or eliminated variables are skipped. *)

val configure :
  ?restart_base:int -> ?var_decay:float -> ?invert_phase:bool -> t -> unit
(** Diversification knobs, all verdict-preserving: [restart_base] scales
    the Luby restart sequence (default 100), [var_decay] sets the VSIDS
    decay factor (default 1/0.95, must be >= 1.0), [invert_phase] flips
    every saved phase once at call time (call after allocating
    variables). *)

val export_cnf : t -> int * Lit.t array list
(** Snapshot of the live clause set at decision level 0:
    [(nvars, clauses)] with level-0 trail units first, then alive problem
    clauses, then alive learnt clauses. Loading the snapshot into a fresh
    solver yields a problem equisatisfiable with this solver's current
    state (learnt clauses are consequences — they prune without changing
    the verdict). Raises [Invalid_argument] off level 0. *)

val inject_model : t -> bool array -> unit
(** Adopt a model found by another solver over a CNF exported from this
    one: [value]/[model] behave as after an own [Sat] answer. Variables
    this solver eliminated by preprocessing are reconstructed from its
    elimination stack. *)

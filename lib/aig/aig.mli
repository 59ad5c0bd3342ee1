(** And-Inverter Graphs.

    An AIG is a DAG of two-input AND gates with optional inversion on every
    edge, plus primary inputs and the constant false. It is the bit-level
    intermediate representation between the word-level expression language
    and CNF: the bit-blaster lowers expressions to AIG nodes, and the
    {!Cnf} emitter performs the Tseitin transformation into the SAT solver.

    Nodes are hash-consed (structural hashing) and locally simplified
    ([x & x = x], [x & ~x = 0], constant folding), so repeated subcircuits —
    ubiquitous when unrolling a design over many clock cycles — are shared.

    A {!lit} is an edge: a node index with a complement bit, encoded in an
    [int] exactly like SAT literals. [false_] and [true_] are the two edges
    of the constant node. *)

type t
(** A mutable AIG under construction. *)

type lit = int
(** An AIG edge (node + complement). Only combine literals with the graph
    that created them. *)

val false_ : lit
val true_ : lit

val create : ?strash:bool -> ?rewrite:bool -> unit -> t
(** [strash] (default [true]) enables structural hashing. Building with it
    disabled produces a (much larger) graph computing the same functions —
    the fuzz harness constructs both and demands evaluation agreement,
    which cross-checks the hash-consing table against the naive
    construction.

    [rewrite] (default [false]) additionally applies one- and two-level
    AND-rewriting rules at construction time (absorption, substitution,
    complement annihilation, shared-fanin contraction, resolution), as in
    ABC's [rewrite]: each hit replaces a would-be node by a strictly
    smaller function of existing nodes, so the graph shrinks before CNF
    emission ever sees it. Rewriting happens only here: nothing re-runs
    the rules over an already-built graph. *)

val fresh_input : t -> lit
(** Allocate a new primary input; returns its positive literal. Inputs are
    numbered consecutively from 0 in allocation order. *)

val num_inputs : t -> int

val num_ands : t -> int
(** Number of AND nodes currently in the graph. *)

val num_rewrites : t -> int
(** Number of construction-time rewrite rule applications (0 unless the
    graph was created with [~rewrite:true]). *)

val input_index : t -> lit -> int option
(** [input_index g l] is [Some i] when [l] is (possibly complemented)
    primary input number [i]. *)

val is_complemented : lit -> bool

(** {1 Construction} *)

val not_ : lit -> lit
val and_ : t -> lit -> lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val xnor_ : t -> lit -> lit -> lit
val implies : t -> lit -> lit -> lit
val iff : t -> lit -> lit -> lit
val ite : t -> lit -> lit -> lit -> lit
(** [ite g c a b] is [if c then a else b]. *)

val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit
val of_bool : bool -> lit

(** {1 Evaluation} *)

val eval : t -> bool array -> lit -> bool
(** [eval g inputs l] computes the Boolean value of [l] given values for
    the primary inputs (indexed by input number). Raises [Invalid_argument]
    if the array is shorter than {!num_inputs}. Memoized per call. *)

val eval_many : t -> bool array -> lit list -> bool list
(** Same, sharing one memo table across all roots. *)

(** {1 CNF emission (Tseitin)} *)

module Cnf : sig
  type emitter
  (** Translates AIG literals to SAT literals on demand, memoizing node
      variables, and emits the defining clauses of each AND gate into the
      underlying solver exactly once. Suitable for incremental use: new AIG
      nodes built after earlier queries are handled transparently. *)

  type stats = {
    cnf_vars : int;  (** SAT variables allocated by this emitter *)
    cnf_clauses : int;  (** defining clauses actually emitted *)
    cnf_clauses_plain : int;
        (** what plain (both-direction) Tseitin would have emitted for the
            same nodes — the polarity-aware saving is the difference *)
    cnf_single_pol : int;
        (** AND nodes currently emitted in one polarity only *)
  }

  val make : ?pg:bool -> t -> Sat.Solver.t -> emitter
  (** [pg] (default [false]) enables polarity-aware (Plaisted–Greenbaum)
      emission: each AND gate's defining clauses are emitted only in the
      direction(s) its use sites require, tracked per node and upgraded on
      demand when a later (incremental) query uses the other polarity. The
      resulting CNF is equisatisfiable and any model still assigns the
      original constraints' input values correctly; internal node variables
      may be under-constrained, so read models through primary inputs. *)

  val pg_enabled : emitter -> bool

  val sat_lit : emitter -> lit -> Sat.Lit.t
  (** SAT literal equisatisfiably representing the AIG literal; emits the
      supporting clauses for the node's cone if not already present. The
      literal is taken in positive use: true entails the AIG function. *)

  val assert_lit : emitter -> lit -> unit
  (** Add the unit clause forcing the AIG literal true. *)

  val assume_lit : emitter -> lit -> Sat.Lit.t
  (** Like {!sat_lit} but intended for use in [Solver.solve ~assumptions]:
      returns the SAT literal to pass as an assumption. *)

  val lookup_lit : emitter -> lit -> Sat.Lit.t option
  (** The SAT literal for an AIG literal whose node was already emitted,
      without emitting anything — the model-read path. [None] if the node
      never reached the solver (its value is unconstrained: treat as
      don't-care). *)

  val stats : emitter -> stats
end

(** {1 Statistics} *)

val pp_stats : Format.formatter -> t -> unit

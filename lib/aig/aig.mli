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

(** {1 Construction} *)

val not_ : lit -> lit
val and_ : t -> lit -> lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val xnor_ : t -> lit -> lit -> lit
val implies : t -> lit -> lit -> lit
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
      variables, and emits the defining clauses of each encoded node into
      the underlying solver exactly once. Suitable for incremental use: new
      AIG nodes built after earlier queries are handled transparently.

      Plain mode ([~pg:false]) is the per-node Tseitin reference encoding:
      every AND node reached gets a variable and three clauses. With [pg]
      on, the emitter also recognises if-then-else structure: an AND node
      whose fanins are both complemented AND nodes [c & t] and [~c & f]
      computes [~ITE(c, t, f)] (XOR and XNOR are [f = ~t]), and it gets one
      variable and two clauses per direction over [c], [t] and [f]. The two
      inner AND nodes get no variable unless another use reaches them. *)

  type stats = {
    cnf_vars : int;  (** SAT variables allocated by this emitter *)
    cnf_clauses : int;  (** defining clauses actually emitted *)
    cnf_clauses_plain : int;
        (** what plain Tseitin would have emitted for the same cones: three
            clauses per AND node reached, counting each node once and
            counting a gate's inner nodes too, plus one for the constant.
            The saving of PG and gate recognition is the difference. *)
    cnf_single_pol : int;
        (** encoded nodes currently emitted in one polarity only *)
    cnf_gates : int;  (** nodes encoded as one if-then-else gate *)
  }

  val make : ?pg:bool -> t -> Sat.Solver.t -> emitter
  (** [pg] (default [false]) enables polarity-aware (Plaisted–Greenbaum)
      emission with if-then-else recognition: each node's defining clauses
      are emitted only in the direction(s) its use sites require, tracked
      per node and upgraded on demand when a later (incremental) query uses
      the other polarity. The resulting CNF is equisatisfiable and any
      model still assigns the original constraints' input values correctly;
      internal node variables may be under-constrained, so read models
      through primary inputs or {!model_reader}. *)

  val sat_lit : emitter -> lit -> Sat.Lit.t
  (** SAT literal equisatisfiably representing the AIG literal; emits the
      supporting clauses for the node's cone if not already present. The
      literal is taken in positive use: true entails the AIG function, so
      it is also the literal to pass in [Solver.solve ~assumptions]. *)

  val assert_lit : emitter -> lit -> unit
  (** Add the unit clause forcing the AIG literal true. *)

  val model_reader : emitter -> lit -> bool
  (** [model_reader e] reads AIG literals in the solver's current model,
      emitting nothing. A node with a SAT variable reads it. An AND node
      without one (the inner node of a gate, or a node no emitted cone
      reaches) is evaluated from its fanins, memoised in this reader, so
      make a new reader after each SAT answer. An input without a variable
      is unconstrained and reads [false] (don't-care). *)

  val stats : emitter -> stats
end

(** {1 Statistics} *)

val pp_stats : Format.formatter -> t -> unit

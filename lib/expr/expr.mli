(** Word-level expressions (a QF_BV-style term language).

    Designs are described with these terms: every register's next-state
    function and every output is an expression over the design's variables
    (registers and primary inputs). The same term has two interpretations,
    and the test suite checks they agree:

    - {!eval} — concrete evaluation over {!Bitvec.t}, used by the RTL
      simulator (and hence by the constrained-random baseline);
    - {!blast} — lowering to an {!Aig.t} bit-level circuit, used by the
      bounded model checker.

    Smart constructors validate widths eagerly and raise [Invalid_argument]
    on mismatch, so malformed designs fail at construction time. *)

type var = { name : string; width : int }

type unop = Not | Neg | Red_and | Red_or | Red_xor

type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr
  | Eq
  | Ne
  | Ult
  | Ule
  | Slt
  | Sle

type t = private
  | Const of Bitvec.t
  | Var of var
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t
  | Extract of int * int * t  (** [Extract (hi, lo, e)] *)
  | Zero_extend of int * t  (** target width *)
  | Sign_extend of int * t  (** target width *)
  | Concat of t * t  (** high, low *)

val width : t -> int
(** Result width. Comparisons and reductions have width 1. *)

(** {1 Smart constructors} *)

val const : Bitvec.t -> t
val const_int : width:int -> int -> t
val bool_ : bool -> t
(** 1-bit constant. *)

val var : string -> int -> t
(** [var name width]. *)

val of_var : var -> t

val not_ : t -> t
val neg : t -> t
val red_and : t -> t
val red_or : t -> t
val red_xor : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

val eq : t -> t -> t
val ne : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t

val ite : t -> t -> t -> t
(** [ite cond then_ else_]; [cond] must be 1 bit wide. *)

val extract : hi:int -> lo:int -> t -> t
val zero_extend : t -> int -> t
val sign_extend : t -> int -> t
val concat : t -> t -> t
(** [concat high low]. *)

val bit : t -> int -> t
(** [bit e i] extracts bit [i] as a 1-bit expression. *)

(** {1 Logical helpers (1-bit operands)} *)

val implies : t -> t -> t
val conj : t list -> t
(** Conjunction of 1-bit expressions; [conj [] = bool_ true]. *)

val disj : t list -> t

(** {1 Analysis} *)

val vars : t -> var list
(** Free variables, each once, in first-occurrence order. *)

val subst : (var -> t option) -> t -> t
(** Capture-free substitution: replace each variable [v] by [f v] when it
    returns [Some]. Width-checked. *)

val map_vars : (var -> var) -> t -> t
(** Rename variables (widths must be preserved by the renaming). *)

val size : t -> int
(** Number of term nodes (a proxy for design size in reports). *)

val simplify : t -> t
(** Semantics-preserving simplification: constant folding plus local
    identities ([e + 0], [e & 0], [ite true a b], [~~e], double negation,
    full-range extracts, ite with equal branches, ...). The result
    evaluates and blasts to the same function; the test suite checks
    eval-equivalence on random terms. Useful when generating designs
    programmatically (e.g. from matrices or tables) where dead branches
    and zero terms arise naturally. *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Interpretations} *)

val eval : (var -> Bitvec.t) -> t -> Bitvec.t
(** Concrete evaluation. The environment must return a value of the
    variable's declared width; raises [Invalid_argument] otherwise. *)

val blast : Aig.t -> (var -> Aig.lit array) -> t -> Aig.lit array
(** Lower to AIG. The environment maps each variable to its bits,
    least-significant first, of the declared width. The result is the bits
    of the expression, LSB first. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

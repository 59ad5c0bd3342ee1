(** Systematic bug injection for the evaluation.

    Mutants model the bug taxonomy of the QED evaluation papers:

    - {b datapath} bugs: operator swaps ([a + b] -> [a - b], [&] -> [|], ...),
      constant corruption, off-by-one on a result;
    - {b control} bugs: inverted multiplexer selects (ite branch swap);
    - {b state} bugs: a register that never updates, a corrupted reset value;
    - {b interference} bugs: a {e hidden} toggle register is added to the
      design and corrupts a result or a stored state depending on its
      phase. These are the context-dependent bugs that escape traditional
      flows and are G-QED's raison d'être; the state-corrupting variant is
      additionally invisible to output-only self-consistency (ablation
      R-A1).

    Mutants are enumerated deterministically (stable ids), and each mutant
    is re-validated before being returned, so every mutant is a
    well-formed design. *)

type operator =
  | Op_swap  (** replace a binary operator by a plausible confusion *)
  | Const_corrupt  (** increment an embedded constant *)
  | Ite_flip  (** swap the branches of a mux *)
  | Off_by_one  (** add 1 to a register's next-state or an output *)
  | Stuck_reg  (** register never updates *)
  | Init_corrupt  (** flip the LSB of a reset value *)
  | Hidden_output  (** hidden toggle corrupts a response path *)
  | Hidden_state  (** hidden toggle corrupts a stored next-state *)
  | Rare_output
      (** like [Hidden_output], but the corruption additionally requires a
          rare coincidence of operand (and register) values — the
          "escapes-the-regression-suite" bug class that symbolic search
          finds and random simulation usually does not *)
  | Rare_state  (** the [Rare_output] trigger applied to a stored next-state *)

val operator_to_string : operator -> string

type bug_class = Datapath | Control | State | Interference

val class_of : operator -> bug_class
val class_to_string : bug_class -> string

type t = {
  id : string;  (** stable identifier, e.g. ["op_swap:next(acc):3"] *)
  operator : operator;
  target : string;  (** ["next(<reg>)"] or ["out(<name>)"] or ["init(<reg>)"] *)
  site : int;  (** pre-order node index inside the target expression *)
  description : string;
}

val enumerate : ?off_by_one_roots_only:bool -> Rtl.design -> t list
(** All mutations applicable to the design, in a deterministic order. *)

val apply : Rtl.design -> t -> Rtl.design option
(** Build the mutant. [None] if the mutation no longer applies or the
    mutant fails validation. *)

val mutants :
  ?per_operator_limit:int -> Rtl.design -> (t * Rtl.design) list
(** Enumerate and apply, optionally capping the number of mutants kept per
    operator (first applicable sites win; enumeration order is stable). *)

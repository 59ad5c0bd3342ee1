(** RTL-style synchronous designs as data.

    A design is a synchronous machine: a set of input ports, a set of
    registers each with a reset value and a next-state expression, and a
    set of named outputs. Next-state and output expressions range over the
    design's inputs and registers and are evaluated once per clock cycle
    (registers update simultaneously, as in an HDL).

    Designs are plain values. This is deliberate: the G-QED product
    construction, the mutation (bug-injection) framework and the BMC
    unroller all work by transforming or traversing these values. *)

type reg = {
  reg : Expr.var;  (** the register, referred to by name in expressions *)
  init : Bitvec.t;  (** reset value *)
  next : Expr.t;  (** next-state function over inputs and registers *)
}

type design = private {
  name : string;
  inputs : Expr.var list;
  registers : reg list;
  outputs : (string * Expr.t) list;
}

val make :
  name:string ->
  inputs:Expr.var list ->
  registers:reg list ->
  outputs:(string * Expr.t) list ->
  design
(** Validating constructor; raises [Invalid_argument] with a description of
    every violation found (duplicate names, width mismatches, references to
    undeclared variables). *)

val validate :
  name:string ->
  inputs:Expr.var list ->
  registers:reg list ->
  outputs:(string * Expr.t) list ->
  (unit, string list) result
(** The checks behind {!make}, usable directly (the mutation engine uses it
    to discard ill-formed mutants). *)

val reg_var : design -> string -> Expr.var
(** Find a register by name. Raises [Not_found]. *)

val input_var : design -> string -> Expr.var
val output_expr : design -> string -> Expr.t

val reg_expr : design -> string -> Expr.t
(** The register as an expression (for building properties). *)

(** {1 Transformation} *)

val rename : prefix:string -> design -> design
(** Prefix every input, register and output name — used to build products of
    design copies with disjoint namespaces. *)

val product : design -> design -> design
(** Disjoint union of two designs (no shared inputs): the two halves run in
    lockstep but independently. Raises [Invalid_argument] if any names
    collide; rename first. *)

val compose :
  name:string ->
  a:design ->
  b:design ->
  connections:(string * Expr.t) list ->
  design
(** Hierarchical composition: instantiate [b] downstream of [a]. Each
    [(port, expr)] connection drives [b]'s input [port] with [expr], an
    expression over [a]'s scope ([a]'s inputs, registers, and outputs —
    output names are resolved to their defining expressions). Unconnected
    [b] inputs become inputs of the composition; inputs of [a] and [b]
    sharing a name and width are unified. All other names must be disjoint
    (use {!rename}). Combinational only: a connection must not create a
    cycle, which holds by construction since expressions cannot mention
    [b]. *)

val stats : design -> int * int * int
(** [(num_state_bits, num_input_bits, total_expr_nodes)] — the size figures
    reported in the evaluation tables. *)

(** {1 Simulation} *)

module Smap : Map.S with type key = string

type valuation = Bitvec.t Smap.t

val initial_state : design -> valuation
(** Register values at reset. *)

val eval_outputs : design -> state:valuation -> inputs:valuation -> valuation
(** Combinational outputs for the given cycle. *)

val step : design -> state:valuation -> inputs:valuation -> valuation
(** Next register values. Raises [Invalid_argument] if an input is missing
    or has the wrong width. *)

type trace_step = { t_inputs : valuation; t_state : valuation; t_outputs : valuation }

val simulate : design -> valuation list -> trace_step list
(** Run from reset over a sequence of per-cycle input valuations; element
    [k] of the result describes cycle [k] ([t_state] is the pre-cycle
    register state). *)

val simulate_from : design -> valuation -> valuation list -> trace_step list
(** Like {!simulate} but starting from the given register state instead of
    the reset state (used to replay counterexamples found with a symbolic
    initial state). *)

val pp_trace : Format.formatter -> trace_step list -> unit
(** Waveform-style table, one row per cycle. *)

(** {1 Memories}

    Small register files are modelled as one register per word plus mux
    trees; these helpers build the read and write expressions. *)

module Mem : sig
  val read : Expr.t array -> addr:Expr.t -> Expr.t
  (** Mux tree selecting the word at [addr]; out-of-range addresses (when
      the array length is not a power of two) return word 0. All words must
      share one width. *)

  val write : Expr.t array -> addr:Expr.t -> data:Expr.t -> Expr.t array
  (** Next-state expressions for all words of the file after writing [data]
      at [addr] (unselected words keep their value). *)
end

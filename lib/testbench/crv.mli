(** The "traditional verification flow" baseline: constrained-random
    transaction-level simulation against a golden-model scoreboard.

    This is what the paper's 370-person-day conventional flow automates the
    running of (but not the building of): it needs the golden model — the
    very artefact QED techniques do without — plus a testbench. Here both
    exist for every benchmark design, so the baseline is as strong as the
    reproduction can make it: an exact reference model, in-order response
    tracking, and response-presence checking.

    Detection is stochastic: a mutant is "detected at budget N" if some
    mismatch occurs within N transactions for the given seed. The
    experiment harness sweeps budgets and seeds to produce detection-rate
    curves (experiment R-F2). *)

type config = {
  seed : int;
  max_transactions : int;  (** stop after this many dispatched transactions *)
  idle_prob : float;  (** probability of an idle (no-dispatch) cycle *)
}

type outcome = {
  detected : bool;
  transactions_run : int;  (** transactions dispatched before stopping *)
  cycles_run : int;
  failure : failure option;
}

and failure = {
  at_transaction : int;  (** 0-based index of the mismatching transaction *)
  at_cycle : int;
  expected : Bitvec.t list;
  got : Bitvec.t list;
  kind : [ `Data_mismatch | `Missing_response | `Spurious_response ];
}

val run : ?design_override:Rtl.design -> Designs.Entry.t -> config -> outcome
(** Simulate the entry's design (or [design_override], e.g. a mutant of it)
    against the entry's golden model. *)

val detection_curve :
  ?design_override:Rtl.design ->
  Designs.Entry.t ->
  budgets:int list ->
  seeds:int list ->
  (int * float) list
(** For each transaction budget, the fraction of seeds that detect a
    mismatch within that budget. *)

val pp_outcome : Format.formatter -> outcome -> unit

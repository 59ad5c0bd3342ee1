(** Benchmark-suite entries.

    Each benchmark accelerator bundles its RTL implementation, its
    transactional interface annotation, a golden transaction-level model
    (used {e only} by the conventional-flow baseline and by test oracles —
    never by the QED checks themselves), and a random operand sampler for
    the constrained-random testbench. *)

type golden = {
  init_state : Bitvec.t list;
      (** golden architectural state at reset, in [iface.arch_regs] order *)
  step : Bitvec.t list -> Bitvec.t list -> Bitvec.t list * Bitvec.t list;
      (** [step state operand] is [(response, state')]; operands in
          [iface.in_data] order, response in [iface.out_data] order. *)
}

type t = {
  name : string;
  description : string;
  design : Rtl.design;
  iface : Qed.Iface.t;
  interfering : bool;
  golden : golden;
  sample_operand : Random.State.t -> Bitvec.t list;
      (** a random transaction operand, in [iface.in_data] order *)
  rec_bound : int;  (** recommended BMC bound for the QED checks *)
}

val make :
  name:string ->
  description:string ->
  design:Rtl.design ->
  iface:Qed.Iface.t ->
  golden:golden ->
  sample_operand:(Random.State.t -> Bitvec.t list) ->
  rec_bound:int ->
  t
(** Validates the interface against the design and infers [interfering]
    from the interface's architectural-state annotation. *)

val operand_valuation : t -> valid:bool -> Bitvec.t list -> Rtl.valuation
(** Build a full input valuation for one cycle: the given operand on the
    [in_data] ports, the valid bit as given, all other inputs zero. *)

val idle_valuation : t -> Rtl.valuation
(** A cycle with no transaction (valid low, everything zero). For designs
    without an [in_valid], this still dispatches; the testbench accounts
    for that. *)

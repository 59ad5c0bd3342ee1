(** Transactional interface description of a hardware accelerator.

    QED-family techniques are spec-free but not description-free: they need
    to know {e where} transactions enter and leave the design, and — for
    G-QED — {e which registers} carry architectural (transaction-visible)
    state. This record is all the designer supplies; in the paper's
    productivity accounting it replaces the full functional specification
    and the design-specific assertion suite of a conventional flow.

    Two handshake shapes are supported:

    - {b fixed latency}: a transaction is dispatched in any cycle where the
      [in_valid] input is high (or every cycle if there is none), and its
      response appears on the [out_data] ports exactly [latency] cycles
      later, flagged by [out_valid] if present. Architectural state settles
      [state_latency] cycles after dispatch.
    - {b variable latency} ([max_latency = Some l]): the design
      back-pressures through the [in_ready] output while busy; a dispatch
      happens on cycles where [in_valid] and [in_ready] are both high, and
      the matching response is the next [out_valid] pulse (in-order,
      single response per transaction, within [l] cycles). The QED checks
      switch to transaction-monitor instrumentation in this mode (see
      {!Instrument}). *)

type t = {
  in_valid : string option;  (** 1-bit input; [None] = a transaction every cycle *)
  in_data : string list;  (** input ports carrying the transaction operand *)
  out_valid : string option;  (** 1-bit output flagging responses *)
  out_data : string list;  (** output ports carrying the response *)
  in_ready : string option;
      (** 1-bit output; when present a transaction is dispatched only on
          cycles where both [in_valid] and [in_ready] are high (the design
          back-pressures while busy) *)
  latency : int;  (** dispatch-to-response distance in cycles, >= 0 (fixed mode) *)
  max_latency : int option;
      (** [Some l] switches the interface to {e variable-latency} mode:
          responses are matched to dispatches in order via [out_valid]
          (required), each arriving at most [l] cycles after its dispatch.
          [latency] is ignored in this mode. *)
  state_latency : int;  (** dispatch-to-state-update distance, >= 1 (fixed mode) *)
  arch_regs : string list;
      (** architectural registers; [[]] declares the design non-interfering *)
  arch_reset : (string * Bitvec.t) list;
      (** documented reset values of architectural registers (may cover a
          subset); checked against the RTL by {!Checks.reset_check} *)
}

val make :
  ?in_valid:string ->
  ?out_valid:string ->
  ?in_ready:string ->
  ?max_latency:int ->
  ?state_latency:int ->
  ?arch_reset:(string * Bitvec.t) list ->
  in_data:string list ->
  out_data:string list ->
  latency:int ->
  arch_regs:string list ->
  unit ->
  t

val validate : Rtl.design -> t -> (unit, string list) result
(** Check the interface against a design: ports exist with the right
    direction and width, latencies are sane, architectural registers are
    registers of the design. *)

val check : Rtl.design -> t -> unit
(** Like {!validate} but raises [Invalid_argument]. *)

val is_interfering : t -> bool
(** [true] iff the interface declares architectural state. *)

val is_variable_latency : t -> bool

val arch_width : Rtl.design -> t -> int

val pp : Format.formatter -> t -> unit

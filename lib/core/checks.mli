(** The QED checks: A-QED functional consistency, the G-QED generalized
    check for interfering accelerators, and the single-action
    (responsiveness) side conditions.

    All checks are bounded: [bound] is the number of clock cycles unrolled.
    Counterexamples are reported at the shortest bound at which they exist
    (incremental deepening), as simulator-replayed waveforms.

    {2 What each check means}

    - {!aqed_fc} (prior work, DAC 2020): one copy of the design; any two
      transactions with equal operands inside one bounded execution must
      respond identically. Sound and complete for non-interfering designs;
      produces false positives on interfering ones.

    - {!gqed} (this paper): two renamed copies of the design run with
      independent input streams. If copy 1 dispatches a transaction at
      cycle [i] and copy 2 dispatches one at cycle [j], with equal operands
      and equal architectural state at dispatch, then both the responses
      and the post-transaction architectural states must be equal. The
      unconstrained contexts before [i] and [j] are what expose
      interference through non-architectural state; the post-state
      conjunct is what catches state-corruption bugs. Only pairs with
      [i <= j] are queried: the copies are renamings of one design with
      independent inputs and the condition is symmetric in them, so a
      failure at [(j, i)] is the same failure with the copies swapped.

    - {!gqed_output_only}: G-QED without the post-state conjunct — the
      ablation showing that the state-matching conjunct is load-bearing.

    - {!sa_check}: every dispatch produces exactly one response, exactly
      [latency] cycles later (fixed-latency single-action condition). This
      discharges the interface assumption under which the G-FC soundness
      argument goes through. *)

type failure_kind =
  | Fc_output  (** equal operands, different response data (A-QED) *)
  | Fc_response  (** equal operands, one response missing (A-QED) *)
  | Gfc_output  (** equal (state, operand), different response (G-QED) *)
  | Gfc_response  (** equal (state, operand), response presence differs *)
  | Gfc_state  (** equal (state, operand), different post-state (G-QED) *)
  | Sa_response  (** response without dispatch, or dispatch without response *)
  | Stability  (** architectural state changed on a cycle with no dispatch *)
  | Reset_value  (** RTL reset value differs from the documented one *)

val failure_kind_to_string : failure_kind -> string

type failure = {
  kind : failure_kind;
  cycle_a : int;
      (** dispatch cycle of the first transaction (copy 1); for the
          fixed-latency G-QED kinds, [cycle_a <= cycle_b] *)
  cycle_b : int;  (** dispatch cycle of the second transaction (copy 2) *)
  witness : Bmc.witness;
}

(** Why (and where) a check gave up: the solver-level reason and the
    deepening cycle whose query was undecided. *)
type unknown = { u_reason : Sat.Solver.unknown_reason; u_bound : int }

type verdict =
  | Pass of int  (** no violation within this many cycles *)
  | Fail of failure
  | Unknown of unknown
      (** a query exhausted its [budget]; neither a pass nor a fail *)

val pp_verdict : Format.formatter -> verdict -> unit

type report = {
  verdict : verdict;
  sat_stats : Sat.Solver.stats;
  cnf_vars : int;
  cnf_clauses : int;
  simp : Bmc.Engine.simp_stats;
      (** formula-shrinking pipeline totals for this check's engine *)
}

(** Every check runs its BMC engine with the full formula-shrinking
    pipeline (see {!Bmc}); the engine picks its own solving path:
    incremental until a query gets hard, then a fresh solver per query
    (see {!Bmc.Engine.create}). [?budget] (default
    {!Sat.Solver.no_budget}) caps each SAT query the engine runs; an
    exhausted budget yields an [Unknown] verdict, which nothing retries.
    A decided verdict depends only on the check and its bound: the fuzz
    [simplify] oracle compares the pipeline with the plain reference
    engine, the fuzz [bmc] oracle the two solving paths, and the golden
    verdict matrix pins every cell by kind and witness length. *)

val aqed_fc :
  ?budget:Sat.Solver.budget ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val gqed :
  ?budget:Sat.Solver.budget ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val gqed_output_only :
  ?budget:Sat.Solver.budget ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val sa_check :
  ?budget:Sat.Solver.budget ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val stability_check :
  ?budget:Sat.Solver.budget ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report
(** Architectural state may change only through a dispatched transaction:
    on any cycle without a dispatch, the architectural registers must keep
    their values. Together with {!sa_check} this discharges the
    transactional-machine abstraction the G-FC soundness argument uses. *)

val reset_check :
  ?budget:Sat.Solver.budget ->
  Rtl.design ->
  Iface.t ->
  report
(** The RTL reset values of the architectural registers match the
    documented ones from {!Iface.t.arch_reset}. Static (no BMC): reset
    values are constants in this modelling. *)

val flow :
  ?budget:Sat.Solver.budget ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report
(** The complete G-QED flow as run in the evaluation: {!reset_check}, then
    {!sa_check}, then {!stability_check}, then {!gqed}; the first failing
    — or first undecided — stage is reported. *)

(** {2 Technique selection (used by the CLI and the experiment harness)} *)

type technique =
  | Aqed  (** {!aqed_fc} *)
  | Gqed  (** {!gqed} *)
  | Gqed_output_only  (** {!gqed_output_only} *)
  | Gqed_flow  (** {!flow} *)
  | Sa  (** {!sa_check} *)
  | Stability  (** {!stability_check} *)

val run :
  ?budget:Sat.Solver.budget ->
  technique ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

(** {2 Campaign persistence}

    Key and payload helpers for the [Persist] journal: a campaign run
    journals one record per {!run} call, and a resumed run skips the
    keys whose journaled report decodes and is decided. *)

val campaign_key : technique -> Rtl.design -> Iface.t -> bound:int -> string
(** Canonical task identity — technique, bound and Marshal+MD5 digests of
    the design and interface. The encoding is frozen so journals written
    by earlier releases still resume. [budget] is deliberately excluded:
    it can only make a verdict [Unknown], which a resume re-runs, and the
    formula encoding and solving path are verdict-preserving, so a decided
    verdict answers the same query under any budget. *)

val campaign_hint : Rtl.design -> bound:int -> float
(** Cold-start hardness estimate for a campaign cell — unrolled problem
    size, [bound × (state + inputs + nodes)]. Distributed scheduling
    orders its queue by journaled solve times ([Persist.Campaign.
    last_seconds]) and falls back to this for never-seen cells. Higher
    means harder; only the ordering matters. *)

val encode_report : report -> string
(** Opaque journal payload: a schema tag plus a [Marshal] blob. *)

val decode_report : string -> report option
(** Inverse of {!encode_report}. [None] on an unrecognized schema tag or
    a blob that does not demarshal — the caller re-runs the task, so
    payload drift degrades to re-work, never a wrong verdict. *)

val report_decided : report -> bool
(** [false] exactly for [Unknown] verdicts, which must never be skipped
    on resume (the resumed run re-attempts them: a bigger budget might
    decide). *)

(** {2 Copy prefixes}

    G-QED witnesses are traces of the two-copy product; these are the
    prefixes used to rename the copies. *)

val copy1_prefix : string
val copy2_prefix : string

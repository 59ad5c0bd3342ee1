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
      conjunct is what catches state-corruption bugs.

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
  cycle_a : int;  (** dispatch cycle of the first transaction (copy 1) *)
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
      (** gave up under resource {!Bmc.limits}; neither a pass nor a fail *)

val pp_verdict : Format.formatter -> verdict -> unit

type report = {
  verdict : verdict;
  sat_stats : Sat.Solver.stats;
  cnf_vars : int;
  cnf_clauses : int;
  simp : Bmc.Engine.simp_stats;
      (** formula-shrinking pipeline totals for this check's engine *)
  attempts : Bmc.Escalate.attempt list;
      (** escalation path that produced this verdict; empty unless the
          check ran under {!run_escalating} *)
}

(** Every check takes [?simplify] (default {!Bmc.default_simplify})
    selecting the formula-shrinking stages of its BMC engine; pass
    {!Bmc.no_simplify} (or a partial configuration) for ablation. [?mono]
    (default [false]) runs the engine in monolithic mode — the design is
    blasted once and every SAT query gets a fresh solver, which unlocks the
    per-query compaction sweep and bounded variable elimination stages of
    the pipeline (see {!Bmc.Engine.create}). [?limits] (default
    {!Bmc.no_limits}) governs the engine's resources: per-query budget,
    cancellation token, restart seed and fault hook; an exhausted budget
    or fired token yields an [Unknown] verdict. The decided verdict is
    independent of every knob — the bench harness and the fuzz oracle
    enforce this. *)

val aqed_fc :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val gqed :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val gqed_output_only :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val sa_check :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val stability_check :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report
(** Architectural state may change only through a dispatched transaction:
    on any cycle without a dispatch, the architectural registers must keep
    their values. Together with {!sa_check} this discharges the
    transactional-machine abstraction the G-FC soundness argument uses. *)

val reset_check :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  Rtl.design ->
  Iface.t ->
  report
(** The RTL reset values of the architectural registers match the
    documented ones from {!Iface.t.arch_reset}. Static (no BMC): reset
    values are constants in this modelling. *)

val flow :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report
(** The complete G-QED flow as run in the evaluation: {!reset_check}, then
    {!sa_check}, then {!stability_check}, then {!gqed}; the first failing
    — or first undecided — stage is reported. *)

(** {2 Technique selection (used by the experiment harness)} *)

type technique = Aqed | Gqed | Gqed_output_only | Gqed_flow

val technique_to_string : technique -> string

val run :
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  technique ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report

val run_escalating :
  ?policy:Bmc.Escalate.policy ->
  ?racing:bool ->
  ?jobs:int ->
  ?simplify:Bmc.simplify_config ->
  ?mono:bool ->
  ?limits:Bmc.limits ->
  technique ->
  Rtl.design ->
  Iface.t ->
  bound:int ->
  report
(** {!run} wrapped in the {!Bmc.Escalate} retry policy: an [Unknown]
    verdict is retried with exponentially grown budgets and perturbed
    configurations until it decides or the policy is exhausted. The
    report's [attempts] field records the full escalation path. With
    unbounded limits this is exactly {!run} (one attempt, no overhead).

    [racing] (default [false]) switches to {!Bmc.Escalate.run_racing}:
    the ladder's rungs race concurrently instead of sequentially, with
    [jobs] capping how many race at once. *)

(** {2 Campaign persistence}

    Key and payload helpers for the [Persist] journal: a campaign run
    journals one record per {!run} call, and a resumed run skips the
    keys whose journaled report decodes and is decided. *)

val campaign_key : technique -> Rtl.design -> Iface.t -> bound:int -> string
(** Canonical task identity — technique, bound and Marshal+MD5 digests of
    the design and interface. The encoding is frozen so journals written
    by earlier releases still resume. [simplify]/[mono]/[limits] are
    deliberately excluded:
    every pipeline stage and solving lane is verdict-preserving, so a
    verdict recorded under one configuration answers the same query
    under any other. *)

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

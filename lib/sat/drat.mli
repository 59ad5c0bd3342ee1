(** DRAT proof logging and checking.

    When proof logging is enabled on a {!Solver.t}, the solver records a
    chronological stream of {!event}s: every problem clause as it is added
    ([Input]), every derived clause — learnt clauses, units implied at level
    0, clauses simplified during preprocessing, and the empty clause on a
    level-0 refutation — as [Add], and every clause dropped from the
    database as [Delete].

    The stream is the standard DRAT format (restricted to RUP additions,
    which is all a CDCL solver ever produces), so an UNSAT verdict can be
    certified independently of the solver that produced it: {!check} replays
    the stream with its own unit propagation and accepts only if every added
    clause is implied (reverse unit propagation) and the stream, together
    with any solve-time assumptions, yields a conflict. The checker shares
    no code with the solver's search: it is a deliberately separate
    implementation of watched-literal propagation over the recorded
    formula. *)

type event =
  | Input of Lit.t array  (** a problem clause, as passed to [add_clause] *)
  | Add of Lit.t array  (** a derived (RUP) clause; [[||]] is the empty clause *)
  | Delete of Lit.t array  (** a clause removed from the database *)

type proof = event list
(** Chronological order (first event first). *)

val check : ?assumptions:Lit.t list -> proof -> (unit, string) result
(** [check ~assumptions proof] verifies that the proof refutes the recorded
    formula under the given assumptions:

    - every [Add] clause must be derivable by reverse unit propagation from
      the clauses alive at that point in the stream;
    - after the whole stream, unit propagation over the live clauses plus
      the assumptions (as unit clauses) must derive a conflict.

    Returns [Error msg] describing the first offending event otherwise.
    A proof certifying a plain (assumption-free) refutation ends in an
    [Add [||]] event; a proof for an UNSAT-under-assumptions answer needs
    the same [assumptions] that were passed to [Solver.solve]. *)

val to_string : proof -> string
(** The [Add]/[Delete] events in standard textual DRAT format (one clause
    per line, deletions prefixed with [d], DIMACS literals). [Input] events
    are not part of a DRAT file — they are the CNF itself — and are
    skipped. Suitable for external checkers such as [drat-trim]. *)

val formula_to_string : proof -> string
(** The [Input] events as a DIMACS document, for handing the original formula to an external checker
    alongside {!to_string}. *)

val pp_event : Format.formatter -> event -> unit

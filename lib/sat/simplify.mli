(** CNF preprocessing: subsumption, self-subsuming resolution and bounded
    variable elimination (SatELite, Eén & Biere 2005).

    This module is deliberately solver-free: it reads the clause database
    as arrays of literals and returns an ordered {!action} log describing
    what it did. The solver replays the log against its own clause
    records, mirroring every step into the DRAT stream — each derived
    clause is added {e before} the clauses it came from are deleted, so
    every addition is RUP against the live set at that point and the
    existing certificate checker accepts the whole stream.

    {b Ownership.} {!run} never mutates its input arrays (the clauses,
    [frozen], [protected]) and keeps no reference to them after it
    returns, except through the log: the literal arrays in {!Eliminate}
    may be the input clause arrays themselves, and every array in the log
    may be shared between actions. The caller must not mutate an input
    clause array while it still uses the log, and must not mutate the
    log's arrays.

    Three kinds of reasoning, all bounded:

    - {b subsumption}: a clause implied by a (sub)clause already in the
      database is deleted;
    - {b self-subsuming resolution}: when resolving [C ∨ l] with [D ∨ ¬l]
      yields a clause subsuming [C ∨ l], the literal [l] is removed from
      it ("strengthening");
    - {b bounded variable elimination}: a variable whose resolvent set is
      no larger than the clauses it replaces is resolved away. Only
      satisfiability-preserving, so the caller runs it on a clause set
      that answers one query and freezes that query's assumption
      variables; the eliminated clauses are saved for {!extend_model}. *)

val bve_max_occ : int
(** 20: elimination does not try a variable that occurs in more clauses. *)

val bve_max_resolvent : int
(** 30: an elimination that would produce a longer resolvent is abandoned. *)

(** One step of the replayable log, in derivation order. Clause ids index
    the input array; {!Add} introduces fresh ids continuing past it. *)
type action =
  | Remove of int  (** clause id: subsumed (or replaced by elimination) *)
  | Strengthen of int * Lit.t array
      (** clause id now has these (fewer) literals; the solver adds the new
          clause, then deletes the old one under the same id *)
  | Add of int * Lit.t array  (** fresh resolvent from variable elimination *)
  | Unit of Lit.t  (** derived unit: enqueue at level 0 (and log as Add) *)
  | Empty  (** the empty clause was derived: the formula is UNSAT *)
  | Eliminate of int * Lit.t array array
      (** variable eliminated; its clauses, saved for model extension *)

type stats = {
  s_subsumed : int;
  s_strengthened : int;
  s_eliminated : int;  (** variables eliminated *)
  s_resolvents : int;  (** non-unit resolvents added by elimination *)
  s_units : int;  (** unit clauses derived *)
}

val run :
  nvars:int ->
  frozen:bool array ->
  protected:bool array ->
  Lit.t array array ->
  action list * stats
(** [run ~nvars ~frozen ~protected clauses] computes a simplification of
    the whole clause set to fixpoint and returns the action log
    (chronological) plus counters.

    [frozen.(v)] excludes variable [v] from elimination (the assumption
    variables of the query the clauses will answer).
    [protected.(i)] marks clause [i] as immutable — it may subsume or
    strengthen others but is never itself removed or strengthened; the
    solver passes its level-0 trail as protected unit clauses this way. *)

val extend_model : bool array -> int -> Lit.t array array -> unit
(** [extend_model model v saved] sets [model.(v)] so that every clause in
    [saved], the clauses [v] was eliminated with, holds under the other
    variables' values. Applied to each eliminated variable, most recently
    eliminated first, it turns a model of the simplified clauses into one
    of the original clauses. *)

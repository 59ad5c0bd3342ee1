(** CNF preprocessing: subsumption, self-subsuming resolution and bounded
    variable elimination (SatELite, Eén & Biere 2005).

    This module is deliberately solver-free: it reads the clause database
    as arrays of literals and returns a {!result} saying what it did. The
    result owns the order of the pass's DRAT steps — each derived clause
    is added {e before} the clauses it came from are deleted, so every
    addition is RUP against the live set at that point — and the clause
    set those steps leave, which the solver installs as it is.

    {b Ownership.} {!run} never mutates its input arrays (the clauses,
    [frozen], [protected]) and keeps no reference to them after it
    returns, except through the result: a [Delete] step and the saved
    clauses of an elimination may be input clause arrays themselves, and
    every array in the result may be shared between its fields. The
    caller must not mutate an input clause array while it still uses the
    result, and must not mutate the result's arrays.

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

type stats = {
  s_subsumed : int;
  s_strengthened : int;
  s_eliminated : int;  (** variables eliminated *)
  s_resolvents : int;  (** non-unit resolvents added by elimination *)
  s_units : int;  (** unit clauses derived *)
}

(** What one pass did. Applying [proof] to the input clauses ([Add]
    inserts a clause, [Delete] removes one copy) leaves exactly the input
    clauses not [removed], plus [added], plus the empty clause if
    [unsat]. *)
type result = {
  proof : Drat.event list;
      (** [Add] and [Delete] steps in derivation order. A strengthened
          clause is an [Add] of its new literals, then a [Delete] of its
          old ones. A derived unit is added and never deleted. *)
  removed : bool array;  (** [removed.(i)]: input clause [i] was deleted or replaced *)
  added : Lit.t array array;
      (** the clauses that come in, each at its latest [Add] (install
          order); a derived unit is a one-literal clause *)
  unsat : bool;  (** the empty clause was derived *)
  eliminated : (int * Lit.t array array) list;
      (** eliminated variables in order, each with the clauses it was
          resolved out of, saved for {!extend_model} *)
  stats : stats;
}

val run : nvars:int -> frozen:bool array -> protected:bool array -> Lit.t array array -> result
(** [run ~nvars ~frozen ~protected clauses] computes a simplification of
    the whole clause set to fixpoint.

    [frozen.(v)] excludes variable [v] from elimination (the assumption
    variables of the query the clauses will answer).
    [protected.(i)] marks clause [i] as immutable — it may subsume or
    strengthen others but is never itself removed or strengthened; the
    solver passes its level-0 trail as protected unit clauses this way.

    No clause may hold a literal and its negation: self-subsuming
    resolution assumes it, and would strengthen [(¬x ∨ y)] to [(y)]
    against [(x ∨ ¬x)]. The solver never passes such a clause, as
    [add_clause] drops tautologies. *)

val extend_model : bool array -> int -> Lit.t array array -> unit
(** [extend_model model v saved] sets [model.(v)] so that every clause in
    [saved], the clauses [v] was eliminated with, holds under the other
    variables' values. Applied to each eliminated variable, most recently
    eliminated first, it turns a model of the simplified clauses into one
    of the original clauses. *)

(** DIMACS CNF reading and writing.

    Supports the standard [p cnf <vars> <clauses>] header, comment lines
    starting with [c], and clauses as zero-terminated literal lists possibly
    spanning several lines. *)

type cnf = { num_vars : int; clauses : Lit.t list list }

val parse_string : string -> (cnf, string) Stdlib.result
(** Parse a DIMACS document from a string. Returns [Error msg] on malformed
    input (bad header, literal out of the declared range, missing
    terminator). *)

val to_string : cnf -> string
(** Render in DIMACS format. *)

val load : Solver.t -> cnf -> unit
(** Allocate the declared variables in the solver (beyond those it already
    has) and add all clauses. *)

val solve_string : string -> (Solver.result * bool array option, string) Stdlib.result
(** Convenience: parse, load into a fresh solver, solve; on SAT also return
    the model. *)

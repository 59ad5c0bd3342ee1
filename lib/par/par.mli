(** Parallel map over OCaml 5 domains, specialized for fanning out
    independent verification tasks (each task typically builds its own
    {!Bmc.Engine}: nothing is shared between tasks).

    Scheduling is chunked and static — a fixed task array and one atomic
    cursor; no work stealing. Results always come back in input order, so a
    parallel run is observably identical to the serial one (only faster),
    and [jobs:1] takes a plain inline loop with no domains at all. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    domains (default {!default_jobs}), and returns results in input order.
    If any task raised, the first exception in input order is re-raised
    after all tasks have finished — with its original backtrace. *)

val map_timed : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b * float) list
(** Like {!map}, also returning each task's wall-clock seconds. *)

(** Parallel map over OCaml 5 domains, specialized for fanning out
    independent verification tasks (each task typically builds its own
    {!Bmc.Engine}: nothing is shared between tasks).

    Scheduling is chunked and static — a fixed task array and one atomic
    cursor; no work stealing. Results always come back in input order, so a
    parallel run is observably identical to the serial one (only faster),
    and [jobs:1] takes a plain inline loop with no domains at all. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** Cooperative cancellation tokens. A token is a plain [bool Atomic.t] —
    the same type {!Sat.Solver.solve} polls — so a watchdog here can cancel
    a SAT search in another domain with no dependency between the
    libraries. *)
module Cancel : sig
  type t = bool Atomic.t

  val create : unit -> t
  val set : t -> unit
  val is_set : t -> bool
end

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    domains (default {!default_jobs}), and returns results in input order.
    If any task raised, the first exception in input order is re-raised
    after all tasks have finished — with its original backtrace. *)

val map_timed : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b * float) list
(** Like {!map}, also returning each task's wall-clock seconds. *)

(** Resource-governed, supervised fan-out: each task gets a cancellation
    token and an optional watchdog deadline; worker failures are
    classified, the transient classes restarted with capped exponential
    backoff, and exhausted tasks degraded to a typed failure — one bad
    task never aborts the campaign. *)
module Supervise : sig
  type failure_class =
    | Crash of string  (** unexpected exception ([Printexc.to_string]) *)
    | Oom  (** [Out_of_memory] — often transient under a fan-out *)
    | Deadline  (** raised after the watchdog set the task's token *)
    | Cancelled  (** token set without a deadline in force *)

  type restart_policy = {
    max_restarts : int;  (** retries after the first attempt *)
    backoff_s : float;  (** pause before the first retry round *)
    backoff_cap_s : float;  (** exponential backoff saturates here *)
    retry_oom : bool;
        (** whether [Oom] failures are retried; set false under a hard
            memory ceiling, where a retry would just die again *)
  }

  val default_policy : restart_policy
  (** 2 restarts, 50 ms initial backoff, 1 s cap, OOM retried. *)

  val backoff_delay : restart_policy -> round:int -> float
  (** Capped exponential backoff before retry round [round] (1-based);
      [round <= 0] is 0. Exposed so the process-level supervisor
      (lib/dist) paces restarts identically to the in-process one. *)

  val retryable : restart_policy -> failure_class -> bool
  (** Whether the policy re-runs this failure class: [Crash] always,
      [Oom] iff [retry_oom], [Deadline]/[Cancelled] never. *)

  val oom_exit_code : int
  (** Exit code (77) by which a supervised worker {e process} reports
      [Out_of_memory], so {!classify_exit} can tell OOM from a crash
      across a process boundary. *)

  val classify_exit : Unix.process_status -> failure_class
  (** Classify a worker process's [waitpid] status: {!oom_exit_code} is
      [Oom]; any other nonzero exit, signal, or stop is a [Crash]. Do not
      call on [WEXITED 0]. *)

  type 'b outcome = {
    s_result : ('b, failure_class) result;
    s_attempts : int;  (** runs of this task, including the first *)
    s_seconds : float;  (** wall-clock summed across attempts *)
  }

  val class_to_string : failure_class -> string

  val supervise :
    ?jobs:int ->
    ?deadline:float ->
    ?policy:restart_policy ->
    (Cancel.t -> 'a -> 'b) ->
    'a list ->
    'b outcome list
  (** Fan [f] out like {!map}, handing each task its own {!Cancel.t}
      token to thread into its solver calls (e.g. via {!Bmc.limits}).
      [deadline] gives every task a wall-clock allowance in seconds: a
      watchdog domain polls running tasks and sets the token of any task
      past it, so a hung query turns into an [Unknown] verdict instead of
      blocking the fan-out. Raised exceptions are classified and the
      transient classes ([Crash], [Oom]) are re-run — whole retry rounds
      with capped exponential backoff between them — until they succeed
      or exhaust [policy.max_restarts]; [Deadline]/[Cancelled] failures
      are not retried (a deadline would just expire again — governed
      tasks that run out of budget should return an [Unknown] result
      rather than raise). [Sys.Break] is re-raised immediately: a ^C
      aborts the campaign. Results come back in input order, one
      {!outcome} per input. Restarts and give-ups are counted in the
      [par.supervise.*] Obs metrics. *)
end

(** Distributed campaigns: fan a verification campaign out across N
    worker {e processes} and collect their verdicts into one crash-safe
    journal.

    The coordinator owns the campaign journal — it is the only process
    that writes it — and a work queue of campaign cells ordered
    hardest-first (journaled solve times from prior runs, falling back
    to a size heuristic cold). Workers pull small batches over a pipe
    protocol — no static chunking, so one hard mutant cannot straggle a
    whole shard — solve each cell, and answer with a length-prefixed
    frame carrying the verdict payload, which the coordinator journals
    before topping the worker's window back up. A worker that dies with
    cells outstanding has crashed, whatever its exit status, and is
    restarted under a {!restart_policy}; its unanswered cells are
    re-queued, so a kill costs re-work, never a verdict. When every
    worker is gone the coordinator degrades to solving the remainder
    itself, retrying crashed solves under the same policy. Resuming
    after a kill skips what the journal decided, so the final matrix is
    bit-identical to an uninterrupted run's.

    A worker is this same executable re-exec'd (the OCaml 5 runtime
    forbids [Unix.fork] once any domain has ever been created, and a
    host may have run [Par] domains first), so solve functions are passed by
    {e registered name}, not closure: the host binary {!register}s its
    solvers and calls {!worker_entry} first thing in [main].

    See DESIGN.md in this directory for the wire protocol and the crash
    model. *)

type cell = {
  cell_key : string;
      (** campaign identity ([Checks.campaign_key]); must not contain
          newlines (it travels in a frame's header line) *)
  cell_hint : float;
      (** cold-start hardness estimate ([Checks.campaign_hint]); only
          the ordering matters *)
}

type row = {
  r_key : string;
  r_decided : bool;  (** false: Unknown — never skippable on resume *)
  r_payload : string;  (** opaque encoded verdict ([Checks.encode_report]) *)
  r_seconds : float;  (** wall-clock solve time (journaled for scheduling) *)
  r_warm : bool;
      (** served from the main journal without re-solving — a resumed or
          repeated cell; timing consumers must not mix warm rows with
          cold ones *)
}

type stats = {
  d_workers : int;  (** worker processes actually used (0 = in-process) *)
  d_cells : int;  (** input cells after key dedup *)
  d_skipped : int;  (** served warm from the main journal *)
  d_dispatched : int;  (** CELL commands sent (requeues included) *)
  d_merged : int;  (** worker results the coordinator journaled *)
  d_restarts : int;  (** worker restarts (and in-process retries) *)
  d_gave_up : int;  (** workers (or serial cells) that exhausted the policy *)
  d_degraded : int;  (** cells the coordinator solved after workers exhausted *)
  d_campaign : Persist.Campaign.stats;  (** main journal's own accounting *)
}

type restart_policy = {
  max_restarts : int;  (** restarts per worker (retries per in-process cell) *)
  backoff_s : float;  (** pause before the first restart *)
  backoff_cap_s : float;  (** exponential backoff saturates here *)
}

val default_policy : restart_policy
(** 2 restarts, 50 ms initial backoff, 1 s cap. *)

type kill = {
  k_worker : int;  (** worker index to SIGKILL *)
  k_after : int;  (** ... once it has acked this many cells (1-based) *)
  k_mode : [ `Restart | `Abort ];
      (** [`Restart]: let supervision revive it (the run completes);
          [`Abort]: SIGKILL every worker and return [Error], leaving the
          journal holding every result answered so far for a resume — the
          crash model the kill-sweep tests and the fuzz oracle drive *)
}

val register : string -> (arg:string -> string -> bool * string) -> unit
(** [register name mk] names a solver. [mk ~arg key] solves one campaign
    cell, returning [(decided, payload)]; [arg] is the opaque
    configuration string given to {!run}, which travels to worker
    processes through their environment — so [mk] must be able to
    rebuild everything it needs from [arg] alone (registry designs,
    a marshalled table on disk, ...). Last registration wins. *)

val worker_entry : unit -> unit
(** Call first thing in [main] of every executable that hosts dist
    campaigns, after its {!register} calls. A no-op in a normal process;
    in a spawned worker (recognized by its environment) it runs the
    worker protocol on stdin/stdout and [Unix._exit]s — stdout is the
    frame channel, so worker solvers must not print to it (a line that
    is not a frame counts as a worker crash). *)

val worker_journal : string -> int -> string
(** [worker_journal journal i] is [journal ^ ".worker-<i>"], the shard
    path older versions wrote; nothing writes it now. Delete it with the
    next benchmark change. *)

val run :
  ?workers:int ->
  ?batch:int ->
  ?policy:restart_policy ->
  ?sync:bool ->
  ?compact_min:int ->
  ?kill:kill ->
  ?arg:string ->
  resume:bool ->
  force:bool ->
  journal:string ->
  solver:string ->
  cell list ->
  (row list * stats, string) result
(** Run a campaign over [cells], sharded across [workers] (default 2)
    spawned worker processes pulling batches of [batch] (default 2)
    cells. [solver] names a {!register}ed solve function and [arg]
    (default [""]) its configuration string; the solve runs {e in the
    worker process}, and any exception raised there ([Out_of_memory]
    included) reports as a worker crash. [policy] defaults to
    {!default_policy}; a worker that already finished its share is never
    restarted, whatever its exit status. [workers <= 1] solves
    in-process (same journal, same rows — the serial baseline), where a
    raising solve is retried under the same policy and, once exhausted,
    degrades to an undecided row with an empty payload.

    [resume]/[force]/[journal] follow {!Persist.Campaign.start}, with
    [sync] and [compact_min] forwarded to it; the coordinator journals
    each result as its frame arrives, so resuming a killed run skips
    exactly what was journaled and re-solves journaled Unknowns.

    Returns one {!row} per distinct input key, in first-appearance
    input order, plus {!stats}; [Error] if [solver] is unregistered, a
    key contains a newline, or the campaign journal cannot be opened.

    [kill] is the crash-injection hook for tests — see {!type-kill}. *)

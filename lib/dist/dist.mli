(** Distributed sharded campaigns: fan a verification campaign out across
    N worker {e processes}, each appending to its own crash-safe journal,
    and merge the shards back into one verdict matrix.

    The coordinator owns the main campaign journal and a work queue of
    campaign cells ordered hardest-first (journaled solve times from
    prior runs, falling back to a size heuristic cold). Workers pull
    small batches over a pipe protocol — no static chunking, so one hard
    mutant cannot straggle a whole shard — solve each cell, append the
    outcome to [<journal>.worker-<i>], and ack. A worker that dies with
    cells outstanding has crashed, whatever its exit status, and is
    restarted under a {!restart_policy}; when every worker is gone
    the coordinator degrades to solving the remainder itself, retrying
    crashed solves under the same policy.
    On completion — and, crucially, on resume after killing any subset
    of workers — per-worker journals are merged into the main journal
    with decided-beats-undecided, last-write-wins semantics, so the
    final matrix is bit-identical to an uninterrupted run's.

    A worker is this same executable re-exec'd (the OCaml 5 runtime
    forbids [Unix.fork] once any domain has ever been created, and the
    solver stack races domains), so solve functions are passed by
    {e registered name}, not closure: the host binary {!register}s its
    solvers and calls {!worker_entry} first thing in [main].

    See DESIGN.md in this directory for the wire protocol, the merge
    order, and the crash model. *)

type cell = {
  cell_key : string;
      (** campaign identity ([Checks.campaign_key]); must not contain
          newlines (it travels over a line protocol) *)
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
  d_merged : int;  (** folded worker records applied to the main journal *)
  d_stale_unknowns : int;
      (** leftover worker Unknowns dropped because the main journal
          already held a decided verdict for the key *)
  d_restarts : int;  (** worker restarts (and in-process retries) *)
  d_gave_up : int;  (** workers (or serial cells) that exhausted the policy *)
  d_degraded : int;  (** cells the coordinator solved after workers exhausted *)
  d_campaign : Persist.Campaign.stats;  (** main journal's own accounting *)
}

type merge_stats = {
  m_files : int;  (** worker journals found and scanned *)
  m_records : int;  (** records replayed from them *)
  m_merged : int;  (** folded records applied to the campaign *)
  m_stale_unknowns : int;  (** Unknowns dropped: main already decided *)
  m_torn_files : int;  (** worker journals whose tails needed recovery *)
  m_unreadable : int;  (** worker journals skipped as unparseable *)
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
          [`Abort]: SIGKILL every worker and return [Error], leaving all
          worker journals on disk for a resume — the crash model the
          kill-sweep tests and the fuzz oracle drive *)
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
    ack channel, so worker solvers must not print to it. *)

val worker_journal : string -> int -> string
(** [worker_journal journal i] is the per-worker journal path,
    [journal ^ ".worker-<i>"]. *)

val merge : ?delete:bool -> into:Persist.Campaign.t -> string -> merge_stats
(** Merge every [<journal>.worker-*] file next to [journal] into the
    campaign. Within the scan (worker-index order, then record order)
    the last decided record for a key wins; an Unknown survives only if
    no shard decided the key — and is dropped entirely when the main
    journal already has a decided verdict (a decided fact beats a
    leftover budget artifact). Torn worker tails are recovered like any
    journal load; unreadable files are skipped, never fatal. [delete]
    (default true) removes merged worker files, making a crash during
    merge safe: the next resume simply re-merges, and last-write-wins
    absorbs the duplicates. *)

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
    [compact_min] forwarded to its auto-compaction gate; leftover
    worker journals from a killed run are merged {e before} scheduling,
    so resuming skips exactly what any shard already decided and
    re-solves journaled Unknowns.

    Returns one {!row} per distinct input key, in first-appearance
    input order, plus {!stats}; [Error] if [solver] is unregistered, a
    key contains a newline, or the campaign journal cannot be opened.

    [kill] is the crash-injection hook for tests — see {!type-kill}. *)

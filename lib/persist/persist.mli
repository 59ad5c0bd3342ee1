(** Crash-safe campaign persistence: a CRC-guarded append-only journal of
    per-task verdicts plus the campaign layer that decides what a resumed
    run may skip.

    The journal is a write-ahead log: one record per completed task,
    appended (and optionally fsynced) before the verdict is reported.
    Loading tolerates what a SIGKILL can leave behind — a torn record at
    the tail — by truncating the file back to the last whole, CRC-valid
    record. The journal is never rewritten in place: a re-run task
    appends a second record, and the last one for a key wins. Anything stronger
    (a flipped bit mid-file) also stops replay at the damage point, so a
    corrupt journal can only ever cost re-work, never import a wrong
    verdict. See DESIGN.md in this directory for the record format and
    the recovery invariants. *)

exception Injected_fault of string
(** Raised by I/O fault hooks standing in for [ENOSPC] / short writes.
    Real I/O errors surface as [Sys_error] as usual. *)

type io_fault =
  | Short_write of int
      (** Write only the first [n] bytes of the record, then fail the
          append (the caller sees {!Injected_fault}). Models a partial
          [write(2)] followed by an error. *)
  | Enospc
      (** Write nothing and fail the append: disk full at [open]/[write]
          time. *)
  | Torn of int
      (** Write only the first [n] bytes of the record and silently
          "succeed" — the process was killed mid-append, so nobody was
          left to observe an error. The journal now ends in a torn
          record that recovery must drop. *)

type fault_hook = int -> io_fault option
(** Called with the 0-based append index before each journal write;
    returning [Some f] injects that fault for this append. *)

val crc32 : string -> int32
(** IEEE 802.3 CRC-32 (the zlib polynomial), exposed for tests.
    [crc32 "123456789" = 0xCBF43926l]. *)

module Journal : sig
  type t

  type entry = {
    e_key : string;  (** task identity, e.g. technique/bound/digests *)
    e_decided : bool;
        (** false for [Unknown] outcomes — journaled for the record but
            never eligible for skipping on resume *)
    e_payload : string;  (** opaque encoded verdict *)
    e_seconds : float;
        (** wall-clock seconds the task took; 0 when the writer did not
            measure *)
  }

  type recovery = {
    rec_entries : int;  (** whole records replayed *)
    rec_dropped_bytes : int;  (** torn/corrupt tail bytes discarded *)
    rec_truncated : bool;  (** whether recovery had to cut the tail *)
  }

  val load : string -> (entry list * recovery, string) result
  (** Replay a journal. A missing header or wrong version is [Error]; a
      0-byte file is a valid empty journal; a torn or CRC-corrupt tail
      is dropped (reported in [recovery], the file itself untouched).
      Entries are returned in append order, duplicates included. *)

  val open_append :
    ?sync:bool ->
    ?fault:fault_hook ->
    string ->
    (t * entry list * recovery, string) result
  (** Open a journal for appending, creating it (with header) if absent.
      If the existing file has a damaged tail it is truncated on disk
      back to the last valid record before appending resumes, so a
      recovered journal never carries dead bytes forward.
      [sync] (default true) fsyncs after every append. *)

  val append :
    ?seconds:float -> t -> decided:bool -> key:string -> payload:string -> unit
  (** Append one record and (when [sync]) fsync. Raises
      {!Injected_fault} when the fault hook fires, [Sys_error] on real
      I/O failure; in both cases the journal file is no worse than torn,
      which {!load} recovers from. A handle that survives a failed
      append also repairs it: the next append rolls the partial bytes
      back so later records stay replayable (only an actual kill leaves
      a torn tail for recovery to cut). [seconds] (default 0) is the
      task's wall-clock time, replayed into {!Campaign.last_seconds}
      for hardness-aware scheduling. *)

  val appended : t -> int
  (** Records successfully appended through this handle. *)

  val close : t -> unit

  val chop : ?torn_bytes:int -> keep:int -> string -> unit
  (** Crash simulation: rewrite the journal at the given path keeping
      only the first
      [keep] records, then append [torn_bytes] of a partial record
      (default 0). This is what a SIGKILL at record [keep] leaves on
      disk. Used by tests and the fuzz kill/resume oracle. *)
end

(** The policy layer over {!Journal}: what a resumed campaign may skip.

    A key is skippable iff its {e last} journaled record (last-write-wins)
    is decided — journaled [Unknown] verdicts are replayed into the stats
    but never returned by {!find_decided}: an Unknown is a budget
    artifact, not a fact about the design, and the resumed run must
    re-attempt it. *)
module Campaign : sig
  type t

  type stats = {
    c_loaded : int;  (** records replayed from an existing journal *)
    c_undecided_loaded : int;  (** of those, Unknown (never skippable) *)
    c_hits : int;  (** [find_decided] answers served from the journal *)
    c_appended : int;  (** new records written this session *)
    c_write_errors : int;  (** appends lost to I/O faults (degraded, not fatal) *)
    c_recovered_bytes : int;  (** corrupt tail bytes dropped on load *)
  }

  val start :
    ?sync:bool ->
    ?fault:fault_hook ->
    resume:bool ->
    force:bool ->
    string ->
    (t, string) result
  (** [resume:false] starts a fresh campaign: an existing journal at
      [path] is an error unless [force] (overwrite guard, same contract
      as [Obs.Export.guard]). [resume:true] requires an existing journal
      — resuming without one is an error, not a silent cold start.
      A resumed journal keeps every record it holds, duplicates
      included: the skip index reads them last-write-wins. *)

  val find_decided : t -> string -> string option
  (** Payload of the last decided record for this key, if any; counts a
      hit. *)

  val last_seconds : t -> string -> float option
  (** Last positive journaled wall-clock seconds for this key, if any —
      the hardness signal distributed scheduling orders its queue by. *)

  val record :
    ?seconds:float -> t -> decided:bool -> key:string -> payload:string -> unit
  (** Journal one outcome and index it. A failed append (injected or
      real I/O error) degrades durability — the key will be re-run on
      resume — but never raises out of a verdict-producing path; it is
      counted in [c_write_errors]. *)

  val stats : t -> stats
  val path : t -> string
  val close : t -> unit
end

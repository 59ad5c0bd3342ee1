(** Observability: structured tracing and a metrics registry for the
    solving stack.

    Zero-dependency (unix only) and disabled by default: every emission
    point is guarded by one load of a global flag, so instrumented hot
    paths pay nothing measurable when tracing is off. When on, events go
    to one in-process buffer in emission order. Each process runs one
    domain (parallelism is [Dist] worker processes), so neither the
    buffer nor the metrics take a lock. See DESIGN.md in this
    directory. *)

val on : unit -> bool
(** The near-zero-cost guard: one load. Instrumentation sites check
    this before building argument lists. *)

val enable : unit -> unit
val disable : unit -> unit

(** {1 Minimal JSON}

    Just enough JSON to emit and re-read our own exports without pulling
    in a dependency. Numbers are floats, objects are assoc lists in
    emission order. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val parse : string -> (t, string) result
  val member : string -> t -> t option
  (** Object field lookup; [None] on missing field or non-object. *)
end

(** {1 Span-based tracing} *)

module Trace : sig
  type kind =
    | Begin  (** span open *)
    | End  (** span close; must match the innermost open span of its track *)
    | Instant  (** point event *)
    | Counter of float  (** sampled value *)

  type event = {
    ev_seq : int;  (** emission order (strictly increasing) *)
    ev_domain : int;
        (** track id ([tid] in the trace file); always 0 for events
            emitted in-process *)
    ev_ts : float;  (** seconds; non-decreasing within a track *)
    ev_kind : kind;
    ev_name : string;
    ev_args : (string * string) list;
  }

  val span_begin : ?args:(string * string) list -> string -> unit
  val span_end : ?args:(string * string) list -> string -> unit

  val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [with_span name f] brackets [f] in a begin/end pair (the end is
      emitted even when [f] raises). When tracing is off this is exactly
      [f ()]; the enabled state is sampled once at entry so a mid-flight
      toggle cannot unbalance the trace. *)

  val instant : ?args:(string * string) list -> string -> unit
  val counter : string -> float -> unit

  val reset : unit -> unit
  (** Drop all buffered events and restart [seq] at 0. *)

  val events : unit -> event list
  (** The buffered trace in sequence order. *)

  (** {2 Well-formedness} *)

  val check : event list -> (unit, string) result
  (** Structural invariants of a trace: sequence numbers strictly
      increase, timestamps are non-decreasing per track ([ev_domain]),
      every [End] matches the innermost open [Begin] of its track, and no
      span is left open. Per-track checking keeps merged multi-process
      traces checkable. *)

  (** {2 Trace files}

      The one file format is Chrome [trace_event] JSON: Perfetto loads it,
      and {!validate_file} checks it. *)

  val to_chrome : Buffer.t -> event list -> unit
  (** [{"traceEvents":[...]}], loadable in Perfetto /
      [about://tracing]. Timestamps are microseconds relative to the first
      event; tracks appear as threads. Each entry also keeps its [seq] and
      its args (a counter's value is the [value] arg), so {!parse_chrome}
      gets back everything {!check} reads. *)

  val parse_chrome : string -> (event list, string) result
  (** Re-read a {!to_chrome} export. An entry with a missing field or an
      unknown phase is an error. Timestamps come back in seconds since the
      first event. *)

  val write : string -> event list -> unit
  (** Write a Chrome trace file; overwrites. *)

  val validate_file : string -> (int, string) result
  (** {!parse_chrome} a trace file and run {!check}; returns the number of
      events on success. *)
end

(** {1 Metrics registry}

    Named counters, gauges and histograms held in plain mutable cells.
    Handles are interned by name: two [counter "x"] calls share state.
    Updates are unconditional (callers guard with {!on} where the lookup
    itself would be hot). *)

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  val gauge : string -> gauge
  val histogram : string -> histogram
  (** Intern a metric. Re-interning an existing name with a different
      kind raises [Invalid_argument]. *)

  val add : counter -> int -> unit
  val incr : counter -> unit
  val set : gauge -> float -> unit
  val observe : histogram -> float -> unit

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of {
        h_count : int;
        h_sum : float;
        h_buckets : (float * int) list;
            (** cumulative: count of observations <= bound; last bound is
                [infinity] *)
      }

  type snapshot = (string * value) list
  (** Sorted by name. *)

  val snapshot : unit -> snapshot

  val diff : before:snapshot -> after:snapshot -> snapshot
  (** Per-interval view: counters and histogram counts/sums subtract
      (a name missing from [before] counts as zero), gauges keep the
      [after] value. Names only in [before] are dropped. *)

  val reset : unit -> unit
  (** Forget every registered metric (handles from before the reset keep
      working but are no longer reachable from {!snapshot}). *)

  val to_json : snapshot -> Json.t
  val write : string -> snapshot -> unit
end

(** {1 Export guard} *)

module Export : sig
  val guard : string -> (unit, string) result
  (** Refuse to clobber an existing output file: [Error msg] when [path]
      exists. Every tool that writes a trace or metrics file checks its
      path with this at startup, and none has an option to overwrite. *)
end

(** In-memory recording sink.

    Buffers every span, instant and thread-state interval in arrival
    order (which, for the runtimes, is deterministic simulated-event
    order — not sorted by start time, since spans and intervals are
    emitted when they {e close}).  Intervals are kept in an
    {!Interval_log}, a few bytes each, and decoded when read.  The
    buffers feed {!Chrome_trace}, the determinism profiler and the
    tests. *)

type t

val create : unit -> t

val sink : t -> Sink.t
(** The recording sink.  One tracer can back several runs; their
    events accumulate in arrival order. *)

val spans : t -> Span.t list
(** In arrival order. *)

val instants : t -> Span.instant list
(** In arrival order. *)

val states : t -> Thread_state.interval list
(** Decoded from the log, in arrival order; per-thread subsequences are
    in time order. *)

val iter_states : (Thread_state.interval -> unit) -> t -> unit
(** {!states} without the list: each interval is decoded and passed on
    in arrival order. *)

val span_count : t -> int
val instant_count : t -> int
val state_count : t -> int

val tids : t -> int list
(** Distinct thread ids seen, ascending — the tracks of the trace. *)

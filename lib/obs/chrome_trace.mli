(** Chrome trace-event JSON export (the JSON Array / JSON Object format
    consumed by Perfetto, chrome://tracing and speedscope).

    Each simulated thread becomes one track ([tid]) of a single process;
    spans become complete events ([ph = "X"]), instants become instant
    events ([ph = "i"], thread scope), and the profiler's thread-state
    interval stream becomes per-thread stacked counter tracks
    ([ph = "C"]) showing where each thread's time goes over the run.
    Timestamps are exported in microseconds (the unit the format
    mandates) as fractional values, so the simulated-nanosecond
    resolution is preserved. *)

val counter_events : ?buckets:int -> Thread_state.interval list -> Json.t list
(** [counter_events states] renders the interval stream as Perfetto
    counter events: the run is divided into [buckets] (default 240)
    equal windows and each (thread, window) pair yields one ["ph":"C"]
    event whose args carry the per-state occupancy in ns.  Exact — the
    per-window ns sum equals the intervals' total duration. *)

val of_events :
  ?process_name:string -> spans:Span.t list -> instants:Span.instant list -> unit -> Json.t
(** The full document: [{"traceEvents": [...], "displayTimeUnit": "ms",
    "otherData": {...}}], with one metadata event naming the process and
    one naming each thread track. *)

val of_tracer : ?process_name:string -> Tracer.t -> Json.t
(** {!of_events} over the tracer's spans and instants, plus its
    thread-state intervals as counter tracks. *)

val write_file : ?process_name:string -> string -> Tracer.t -> unit

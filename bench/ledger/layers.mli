(** Outside-in host-time attribution for deterministic runs.

    A tracer wraps the public entry points one run goes through: the
    engine's {!Sim.Exec.t} record ([advance], [block], [wakeup],
    [spawn]), every {!Api.ops} field (including the child ops reached
    through [spawn]), the program body, and the {!Obs.Sink.t} /
    {!Runtime.Rt_event.observer} callbacks.  It keeps one layer stack
    per engine fiber, keyed by {!Sim.Engine.self}, plus one for code
    that runs outside the engine.  One monotonic tick at every wrapper
    entry and exit charges the host ns elapsed since the previous tick
    to the top of the current stack, so the per-layer self times tile
    the traced interval exactly.  Nothing under [lib/] is instrumented:
    a layer's self time includes whatever it calls that is not itself a
    wrapped entry point. *)

type layer =
  | Sim  (** the DES engine: scheduling, effect round-trips, fiber switches *)
  | Run  (** [run_exec] outside the engine: segment set-up, result assembly *)
  | Work  (** [work], [log_output], [yield] *)
  | Mem
      (** [read], [write], [read_int], [write_int], [fetch_add],
          [base_version], [snapshot_read] *)
  | Lock  (** [lock], [unlock] *)
  | Barrier  (** [barrier_init], [barrier_wait] *)
  | Cond  (** [cond_wait], [cond_signal], [cond_broadcast] *)
  | Thread
      (** [spawn], [join], and a fiber's runtime code outside the
          program body (thread start and exit) *)
  | Atomic  (** [atomic_fetch_add] *)
  | Txn  (** [txn_validate], [txn_abort], [now_ns], [metric_incr], [metric_observe] *)
  | Workload  (** program code between runtime calls *)
  | Obs  (** sink and observer callbacks *)

val now : unit -> int
(** Host monotonic clock, ns. *)

val all : layer list
val name : layer -> string
(** ["sim"], ["runtime.<op>"], ["workload"] or ["obs"]. *)

type t

val create : ?record:bool -> unit -> t
(** A tracer accumulating over any number of runs.  With [record],
    every layer activation of every run is also kept as a host-time
    span for {!chrome_trace}. *)

val traced_run :
  t -> Sim.Engine.t -> (ex:Sim.Exec.t -> start:(unit -> unit) -> 'a) -> 'a
(** [traced_run t eng k] calls [k] with the wrapped [Sim.Exec.of_engine
    eng] and a [start] that runs the engine; [k] is expected to call
    [Runtime.Det_rt.run_exec] with them and with programs, sinks and
    observers wrapped by the functions below.  The traced interval is
    the call of [k]. *)

val program : t -> Api.t -> Api.t
val sink : t -> Obs.Sink.t -> Obs.Sink.t
val observer : t -> Runtime.Rt_event.observer -> Runtime.Rt_event.observer

val self_ns : t -> layer -> int
val calls : t -> layer -> int
(** Wrapper activations.  For [Run], the number of traced runs. *)

val traced_ns : t -> int
(** Sum of the traced intervals. *)

val attributed_ns : t -> int
(** Sum of {!self_ns} over {!all}; equals {!traced_ns} exactly. *)

val chrome_trace : t -> process_name:string -> Obs.Json.t
(** The recorded spans as a Chrome trace-event document (empty without
    [record]).  Timestamps are host time since the tracer's creation;
    track 0 is code outside the engine, track [k + 1] is fiber [k]. *)

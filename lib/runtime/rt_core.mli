(** The accounting core both runtimes ({!Det_rt}, {!Pthreads_rt}) build
    on.  It owns three decisions:

    - how a nanosecond is accounted: {!charge} and {!wait} are the only
      two entry points, and each one feeds the thread's
      {!Stats.Breakdown} (through {!Stats.Breakdown.of_state}), the
      {!Obs.Thread_state} interval stream, and the state's latency
      histogram together, so the three cannot disagree;
    - how a sync op is recorded: the sync-order witness (a streaming
      hash; the schedule itself is kept only on request), [sync_ops]
      and the interned [op:*] counters;
    - how the {!Stats.Run_result.t} is assembled.

    Event emission (spans other than waits, instants, the
    {!Rt_event} observer) stays with each runtime. *)

(** Per-thread accounting state. *)
type thread = {
  tid : int;
  name : string;
  bd : Stats.Breakdown.t;
  mutable chunk : int;
      (** ordinal of the chunk currently charged to, stamped on every
          state interval; bumped when a chunk (re)opens, so the
          coordination that closes a chunk counts toward it.  Always 0
          under pthreads. *)
  mutable waker : int;
      (** tid whose grant / wakeup ended (or will end) this thread's
          current wait; -1 = none.  Set by the waker, read by the caller
          of {!wait}, and reset by {!wait}. *)
}

val thread : tid:int -> name:string -> thread

(** The sync-op families counted as [op:<family>]. *)
type op =
  | Lock
  | Unlock
  | Commit
  | Spawn
  | Join
  | Exit
  | Cond_wait
  | Barrier
  | Atomic
  | Signal
  | Broadcast
  | Forced_commit

type t

val create : schedule:bool -> ex:Sim.Exec.t -> obs:Obs.Sink.t -> t
(** [schedule] keeps every sync op in full for
    {!Stats.Run_result.schedule}; otherwise the sync and output
    witnesses are hashed as the run goes and recording allocates
    nothing. *)

val metrics : t -> Obs.Metrics.t
val now : t -> int

val charge : t -> thread -> Obs.Thread_state.t -> int -> unit
(** [charge c th state ns] spends [ns] of modelled time in [state]:
    advances the clock, adds [ns] to the breakdown, emits the state
    interval when tracing, and records [ns] in the state's histogram
    ([commit_ns], [update_ns], [commit_pipe_ns], ...).  No-op for
    [ns <= 0]. *)

val wait : t -> thread -> Obs.Thread_state.t -> name:string -> t0:int -> waker:int -> unit
(** [wait c th state ~name ~t0 ~waker] accounts a blocking wait that
    began at [t0] and ends now: breakdown, histogram ([determ_wait_ns],
    [lock_wait_ns] or [barrier_wait_ns]; zero-length waits are recorded
    too) and, when tracing and the wait was non-empty, a wait span
    called [name] plus the state interval credited to [waker].  Resets
    [th.waker]. *)

val sync : t -> tid:int -> op -> int -> unit
(** [sync c ~tid op id] records one synchronization operation on object
    [id] (mutex, condition variable, barrier, address, version or
    thread) in the sync-order witness, under {!label}[ op id], which it
    hashes without building.  [Exit] and [Forced_commit] act on no
    object and ignore [id]. *)

val label : op -> int -> string
(** [label Lock 3] is ["lock:3"]; [label Exit _] is ["exit"] and
    [label Forced_commit _] is ["forced-commit"].  The runtimes also
    name lock, barrier and join waits and spawn and join spans with it.
    For ids 0–63 the label is one shared string, built once per
    process on first use; any other id gets one exact-size
    allocation. *)

val cond_reason : int -> string
(** ["cond:<cid>"], a condition wait's name; shared for ids 0–63. *)

val thread_name : int -> string
(** ["t<tid>"], a spawned thread's default name; shared for ids 0–63. *)

val metric_incr : t -> string -> int -> unit
(** [metric_incr c key by] bumps the program counter [key]
    ({!Api.ops}[.metric_incr]).  Keys resolve to interned
    {!Obs.Metrics} handles cached for the run, compared with
    [String.equal], so a key built at run time reaches the same counter
    as the literal and never adds a cache entry.  The registry ends up exactly as
    {!Obs.Metrics.incr} would leave it. *)

val metric_observe : t -> string -> int -> unit
(** [metric_observe c key v] records [v] in the program histogram [key]
    ({!Api.ops}[.metric_observe]), resolved like {!metric_incr}. *)

val interned_metrics : t -> int
(** Cache entries behind {!metric_incr} and {!metric_observe}: one per
    distinct counter key plus one per distinct histogram key. *)

val output : t -> tid:int -> string -> unit
(** Record one application output event in the output witness. *)

val thread_stat : thread -> instructions:int -> Stats.Run_result.thread_stat

val result :
  t ->
  program:string ->
  runtime:string ->
  nthreads:int ->
  seed:int ->
  per_thread:Stats.Run_result.thread_stat list ->
  mem_hash:string ->
  peak_mem_pages:int ->
  Stats.Run_result.t
(** The run's result; [per_thread] is in tid order.  Versioned-memory
    and token counters are zero; {!Det_rt} fills them in. *)

(** Deterministic-runtime configuration and the paper's library presets.

    One configurable runtime implements all four deterministic systems
    compared in the evaluation (section 5); each preset fixes the design
    points its paper describes:

    - {!dthreads}: round-robin ordering (all threads rendezvous at the
      epoch fence and commit serially in thread-id order, Fig 3a), a
      single global lock, mprotect-based isolation cost multipliers, no
      Consequence optimizations.
    - {!dwc} (DThreads-with-Conversion [23]): the same ordering and
      single global lock over Conversion's versioned memory (its fault
      and commit costs, rate-limited GC).
    - {!consequence_rr}: full Consequence machinery with round-robin
      ordering (the Consequence-RR curve of Fig 10).
    - {!consequence_ic}: the main system — GMIC (instruction-count)
      ordering plus all optimizations of section 3.

    Every optimization is independently toggleable for the Fig 13
    ablation study. *)

type ordering = Round_robin | Instruction_count

type lock_granularity =
  | Single_global  (** every mutex aliases one global lock (DThreads/DWC) *)
  | Per_lock

type coarsening =
  | No_coarsening
  | Static of int  (** always coalesce exactly this many sync ops *)
  | Adaptive  (** EWMA estimates + multiplicative max adaptation (section 3.1) *)

type scheduling =
  | Emergent  (** boundaries fall out of the adaptive policies (normal runs) *)
  | Scripted of int array array
      (** replay mode (lib/replay): element [tid] lists the ascending
          retired-instruction counts at which thread [tid]'s counter must
          overflow, exactly as recorded by a {!Runtime.Rt_event.Boundary}
          stream.  Threads beyond the array length run unscripted.
          Scripting replaces the adaptive overflow policy's {e decisions}
          with their recorded outcomes; since overflow placement never
          affects determinism, a scripted run of the same program is
          byte-identical to the recorded one. *)

type t = {
  name : string;
  ordering : ordering;
  lock_granularity : lock_granularity;
  fault_cost_mult : float;  (** isolation-cost multiplier vs Conversion *)
  commit_cost_mult : float;
  coarsening : coarsening;
  adaptive_overflow : bool;  (** section 3.2; false = fixed overflow interval *)
  userspace_reads : bool;  (** section 3.4 *)
  fast_forward : bool;  (** section 3.5 *)
  parallel_barrier : bool;  (** section 4.2 two-phase barrier commit *)
  thread_pool : bool;  (** section 3.3 fork-join thread reuse *)
  chunk_limit : int option;
      (** section 2.7 ad-hoc-synchronization support: force a commit+update
          every N retired instructions.  [None] (the evaluation default)
          disables it. *)
  polling_locks : int option;
      (** [Some k]: Kendo-style polling mutex (section 4.1): a GMIC thread
          that finds the lock held releases the token, adds [k] to its own
          logical clock and retries — instead of Consequence's blocking
          algorithm (depart + wait queue).  [k] is the tuning knob the
          paper criticizes.  [None] (default): blocking locks. *)
  counter_jitter_ppm : int;
      (** parts-per-million multiplicative noise on {e published} counter
          values; nonzero models untrusted performance counters [30] and
          intentionally breaks determinism for the soundness study. *)
  gc_budgeted : bool;
      (** true = Conversion's rate-limited single-threaded GC (Fig 12);
          false = snapshots reclaimed eagerly (DThreads-style accounting,
          which keeps only the live image plus twins) *)
  pipelined_commit : bool;
      (** pipeline commits with execution: the token holder seals and
          publishes its write-set (charged per page at
          [commit_seal_page_ns] while holding the global) and releases
          immediately; the bulk install/merge is charged after the
          release as a {!Obs.Thread_state.Commit_pipe} interval, so the
          twin-diff/merge of chunk N overlaps execution of chunk N+1.
          The installed {e data} still lands at the token hold (version
          order is unchanged), so witnesses, merges, conflict capture
          and commit digests are byte-identical to the serial path. *)
  commit_shards : int;
      (** split the segment into this many contiguous page-range shards
          with independent live accounting and GC cursors; a commit
          whose footprint spans several shards is charged its largest
          single-shard footprint as the install term (the shards
          install concurrently in the cost model) rather than the sum.
          The pages themselves install serially, so data and witnesses
          are unchanged.  1 = unsharded (the default). *)
  incremental_gc : bool;
      (** replace the single rate-limited GC sweep with the incremental
          per-shard collector: bounded steps ([gc_step_pages]) that run
          in commit slack (at every pipelined-commit drain point) *)
  scheduling : scheduling;
  tune : Tune_ctl.params option;
      (** [Some p]: the self-tuning controller is on — at each
          retired-instruction milestone ([epoch * p.period], enforced
          exactly by clamping overflow intervals) every thread applies
          the pure decision {!Tune_ctl.decide}, retargeting its overflow
          policy and coarsening bounds and emitting a replay-checked
          {!Rt_event.Tune_decision}.  Orthogonal to [scheduling]: a
          scripted replay of a tuned run keeps the controller on, so the
          recorded decisions are re-derived and re-checked.  [None]
          (default): static knobs. *)
}

val dthreads : t
val dwc : t
val consequence_rr : t
val consequence_ic : t

val consequence_pipe : t
(** {!consequence_ic} with [pipelined_commit], 8 [commit_shards] and
    [incremental_gc] — the scaled commit path.  Witness-identical to
    {!consequence_ic} by construction (only cost placement changes);
    not part of {!presets}. *)

val presets : t list
(** The four deterministic libraries of Fig 10, in display order. *)

val with_name : t -> string -> t
val without_coarsening : t -> t
val with_static_coarsening : t -> int -> t
val without_adaptive_overflow : t -> t
val without_userspace_reads : t -> t
val without_fast_forward : t -> t
val without_parallel_barrier : t -> t
val without_thread_pool : t -> t
val with_chunk_limit : t -> int -> t
val with_polling_locks : t -> increment:int -> t
val with_counter_jitter : t -> ppm:int -> t

val with_pipelined_commit : t -> t
val with_commit_shards : t -> int -> t
val with_incremental_gc : t -> t

val with_scripted_schedule : t -> boundaries:int array array -> t
(** Replay a recorded schedule: force per-thread chunk boundaries at the
    given retired-instruction counts (see {!scheduling}). *)

val scripted : t -> bool

val with_adaptive_tuning : ?params:Tune_ctl.params -> t -> t
(** Turn the self-tuning controller on (appends ["-tuned"] to the
    name).  [params] defaults to {!Tune_ctl.default}, whose steady
    state is the hand-tuned static configuration.
    @raise Invalid_argument on malformed params. *)

val without_adaptive_tuning : t -> t
(** Turn the controller back off (strips a trailing ["-tuned"]). *)

val tuned : t -> bool

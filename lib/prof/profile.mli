(** Thread-state time attribution: the determinism profiler's collector
    and per-thread/per-chunk aggregates.

    A {!collector}'s {!sink} subscribes to the runtimes'
    {!Obs.Thread_state} interval stream, and its {!observer} picks the
    spawn edges out of the happens-before stream (for walking from a
    thread's birth to its parent during critical-path analysis).  The
    sink folds each interval into its thread's accumulators as it
    arrives (per-state and per-chunk ns, gaps, overlaps, the per-state
    histograms) and keeps nothing per interval: a consumer that needs
    the intervals themselves ({!Critical_path}) reads them from an
    {!Obs.Tracer} teed beside it.  {!finish} copies the accumulators
    out, in O(threads + chunks).

    The central invariant is {e conservation}: the simulated clock only
    moves while a thread is inside a charged operation or a measured
    wait, so each thread's intervals tile the span from its first to its
    last interval exactly — no gap, no overlap, and the per-state sums
    account for every nanosecond ({!conservation_ok}; property-tested
    across all runtimes in [test_prof]). *)

type collector

val create : unit -> collector

val sink : collector -> Obs.Sink.t
(** Records state intervals only; spans and instants are dropped (tee
    with a {!Obs.Tracer} to keep both).  An interval with [t1 < t0] is
    rejected with [Invalid_argument] before it changes anything. *)

val observer : collector -> Runtime.Rt_event.observer
(** Records spawn edges ([Release] of ["t:<child>"]).  Optional: without
    it, critical-path walks stop at a thread's first interval instead of
    continuing on the parent. *)

type thread_profile = {
  ptid : int;
  by_state : int array;  (** ns per state, indexed by {!Obs.Thread_state.index} *)
  intervals : int;  (** how many *)
  first_ns : int;
  last_ns : int;
  gap_ns : int;  (** uncovered ns strictly inside the lifetime; 0 when conserved *)
  overlap_ns : int;  (** doubly-covered ns; 0 when conserved *)
  chunks : (int * int array) array;
      (** (chunk ordinal, per-state ns), ascending ordinal.  Chunk
          ordinals count chunk (re)opens; coordination work is charged
          to the chunk it closes. *)
}

type t = {
  threads : thread_profile list;  (** ascending tid *)
  totals : int array;  (** per-state ns summed over threads *)
  wall_ns : int;
  parents : (int * int) list;  (** (child tid, parent tid) spawn edges *)
  hists : Obs.Metrics.snapshot;
      (** one histogram per state (["state:<name>"]) over individual
          interval lengths — the p50/p99/p999 columns of the report *)
  nintervals : int;
}

val finish : collector -> wall_ns:int -> t
(** The profile of every interval so far.  It copies what it reads, so
    intervals fed to the collector later do not change it. *)

val parent_of : t -> int -> int option

val lifetime_ns : thread_profile -> int
val busy_ns : thread_profile -> int
(** Sum of [by_state]; equals {!lifetime_ns} exactly when conserved. *)

val thread_conserved : thread_profile -> bool
val conservation_ok : t -> bool

val chunks_consistent : thread_profile -> bool
(** Per-chunk per-state sums re-partition [by_state] exactly. *)

val state_share : t -> Obs.Thread_state.t -> float
(** The state's fraction of the {e total busy time} (sum of [totals]),
    [0..1]; all states' shares sum to 1 (or all-zero on an empty
    profile).  The single shared derivation behind the report's
    percentage columns and the self-tuning controller's
    profile-to-params mapping — consumers must not re-derive shares from
    raw totals. *)

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit

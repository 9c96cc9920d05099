(** Exhaustive thread-state classification for the determinism profiler.

    Where {!Span} records {e episodes} the runtimes choose to narrate
    (token holds, commits, chunks), a thread-state interval stream is a
    {e partition} of each thread's simulated lifetime: every nanosecond
    between a thread's first and last activity belongs to exactly one
    state.  The runtimes emit one interval per contiguous stretch, in
    per-thread time order, and the profiler's conservation invariant
    (per-thread state times sum exactly to lifetime, no gaps, no
    overlaps) is enforced by the test suite.

    State semantics, and the [Stats.Breakdown] category each state
    feeds.  [Stats.Breakdown.of_state] is the one place that map is
    written; every runtime charges through it, so a breakdown is always
    the per-category fold of the thread's state intervals:

    - [Run]: useful user work (breakdown [Chunk]);
    - [Token_wait]: waiting to become GMIC / for the round-robin serial
      turn / at the DThreads fence ([Determ_wait]);
    - [Lock_wait] / [Barrier_wait]: parked on a lock, condition or
      application barrier ([Lock_wait] / [Barrier_wait]);
    - [Commit] / [Update]: publishing dirty pages / pulling remote
      versions ([Commit] / [Update]);
    - [Fault]: copy-on-write fault handling ([Page_fault]);
    - [Overflow]: chunk-boundary instrumentation — performance-counter
      reads and counter-overflow interrupts ([Library]);
    - [Runtime]: residual runtime overhead — sync-op entry, token
      passing, wakeups ([Library]);
    - [Fork]: thread creation / teardown / pool recycling ([Fork]);
    - [Gc]: version garbage collection.  Zero under the default cost
      model: Conversion's budgeted collector runs off the critical path
      (its {e memory} cost shows up in [peak_mem_pages] instead), but
      the state exists so alternative cost models can charge it;
    - [Commit_pipe]: the drained phase of a pipelined commit — the bulk
      install/merge work charged {e after} the global is released, so it
      overlaps the execution of other threads' next chunks (feeds the
      same Breakdown [Commit] category as [Commit], so breakdown totals
      are placement-independent);
    - [Txn_validate] / [Txn_abort]: software-transaction bookkeeping —
      validating a transaction's read/write intents against the commit
      order, and discarding an aborted transaction's buffered write set
      (including its deterministic retry backoff).  Both feed
      [Library]: they are runtime overhead, not useful work. *)

type t =
  | Run
  | Token_wait
  | Lock_wait
  | Barrier_wait
  | Commit
  | Update
  | Fault
  | Overflow
  | Runtime
  | Fork
  | Gc
  | Commit_pipe
  | Txn_validate
  | Txn_abort

val all : t list
(** In {!index} order. *)

val n : int
(** [List.length all]; the profiler's per-state arrays have this size. *)

val index : t -> int
val of_index : int -> t
val name : t -> string
val is_wait : t -> bool
(** True for the states whose intervals carry a meaningful [waker]. *)

type interval = {
  stid : int;  (** thread the interval belongs to *)
  state : t;
  t0 : int;  (** simulated ns, inclusive *)
  t1 : int;  (** simulated ns, exclusive; always > [t0] *)
  chunk : int;
      (** the thread's 0-based chunk ordinal (coordination phases count
          toward the chunk they close); always 0 under pthreads *)
  waker : int;
      (** for wait states: the thread whose action ended the wait (the
          granter, fence completer, or last token enabler); -1 when
          unknown or not a wait *)
}

val duration : interval -> int
val interval_to_json : interval -> Json.t

(** Deterministic discrete-event simulation engine.

    The engine runs a set of cooperative simulated threads ("fibers"), each
    pinned to its own simulated core, over a virtual nanosecond clock.
    Fibers are ordinary OCaml functions written in direct style; they
    interact with simulated time through the operations below, which are
    implemented with effect handlers.

    Determinism: all scheduling ties are broken by event insertion order,
    so a run is a pure function of the program and the engine's PRNG seed.
    Modelled nondeterminism (latency jitter, racy wake-ups) must be drawn
    explicitly from {!prng}. *)

type t

type tid = int
(** Simulated thread id.  The first spawned fiber gets id 0. *)

exception Deadlock of string
(** Raised by {!run} when no fiber is runnable but some are still blocked:
    the simulated program has deadlocked.  The payload lists the stuck
    fibers and their block reasons. *)

exception Stuck of string
(** Raised when the simulation exceeds its safety event budget; indicates
    a runaway model (e.g. an ad-hoc synchronization spin loop that no
    commit will ever break, cf. paper section 2.7). *)

val create : ?max_events:int -> seed:int -> unit -> t
(** [create ~seed ()] makes an engine whose jitter streams derive from
    [seed].  [max_events] (default 50_000_000) bounds total scheduler
    dispatches as a runaway guard. *)

val prng : t -> Prng.t
(** The engine's master PRNG.  Subsystems should [Prng.split] it. *)

val now : t -> int
(** Current simulated time in nanoseconds.  Outside {!run} this is the
    final time of the last run. *)

val spawn : t -> ?name:string -> (unit -> unit) -> tid
(** Register a fiber.  May be called before {!run} or from inside a running
    fiber.  The fiber becomes runnable at the current simulated time. *)

val run : t -> unit
(** Execute until no events remain.  Raises {!Deadlock} if blocked fibers
    remain when the queue drains. *)

val fiber_count : t -> int
(** Number of fibers ever spawned. *)

val events : t -> int
(** Scheduler events processed so far (dispatches plus fast-path
    advances); a load metric for the engine itself. *)

val dispatches : t -> int
(** Events that went through the queues and an effect round-trip, i.e.
    [events] minus the advances the fast path absorbed. *)

val name_of : t -> tid -> string

(** {1 Operations available inside fibers}

    These must only be called from within a fiber executing under {!run}
    of the engine they were given. *)

val self : t -> tid
(** Id of the calling fiber. *)

val advance : t -> int -> unit
(** [advance t ns] consumes [ns] nanoseconds of simulated time.  Other
    fibers with earlier wake times run "in parallel" during this window.
    [ns] must be >= 0. *)

val block : t -> reason:string -> unit
(** Deschedule the calling fiber until some other fiber calls {!wakeup} on
    it.  If a wakeup was already pending (posted while this fiber was
    running), returns immediately and consumes the pending wakeup: wakeups
    behave like a binary permit, so the signal-then-block race inherent in
    futex-style code cannot lose a wakeup. *)

val wakeup : t -> tid -> unit
(** Make [tid] runnable at the current simulated time (or post a pending
    permit if it is not blocked).  Waking a finished fiber is a no-op.
    Same-instant wakeups take an O(1) fast path: the resume event goes to
    a due-now ring instead of the timed heap, skipping the sift. *)

val blocked_reason : t -> tid -> string option
(** [Some reason] if the fiber is currently blocked, [None] otherwise. *)

(** The global token (paper sections 2.1, 4).

    Under instruction-count ordering (Consequence-IC) every deterministic
    event — lock, unlock, barrier, condition-variable operation, thread
    create/join/exit, commit — requires holding the single global token,
    and only the GMIC thread of the {!Logical_clock} registry may take a
    free token (Kendo-style ordering).  The eligible thread is computed
    from deterministic state (published instruction counts), which is
    what makes the synchronization order deterministic.  Round-robin
    ordering (DThreads, DWC, Consequence-RR) does not use the token: the
    runtime orders those events with an epoch fence and a serial turn.

    The token does not watch clock state on its own: callers must {!poke}
    it after any change that could alter eligibility (tick, depart,
    arrive, finish).  The runtime's chunk executor does this at every
    publication point, mirroring the kernel module that notifies a newly
    appointed GMIC thread (section 3.4). *)

type t

(** The execution substrate ({!Sim.Exec.t}) supplies block/wakeup: the
    DES engine in simulation, the domain scheduler under real-multicore
    execution.  Eligibility itself depends only on deterministic clock
    state, never on the substrate. *)
val create : Sim.Exec.t -> Logical_clock.t -> t

val wait : t -> tid:int -> unit
(** The paper's [waitToken()]: block until this thread is the eligible
    taker and the token is free, then take it.  Must be called from the
    fiber whose id is [tid]. *)

val release : t -> tid:int -> unit
(** The paper's [releaseToken()]: free the token and hand it to the
    eligible waiter, if any.  Raises if [tid] does not hold the token. *)

val holder : t -> int option

val eligible_now : t -> int option
(** The thread that could take the token right now (whether or not it is
    waiting); [None] if the token is held or no thread is active. *)

val is_waiting : t -> tid:int -> bool

val waiting_count : t -> int

val poke : t -> unit
(** Re-evaluate eligibility and wake the winning waiter, if any.  Call
    after clock publications, departures, arrivals and thread exits.
    O(1): the winner is read off the clock registry's incremental GMIC
    index, and exactly that thread is woken (direct handoff — one engine
    event per token transfer). *)

val acquisitions : t -> int
(** Total successful acquisitions (a determinism-independent load metric). *)

val wakeups : t -> int
(** Total wakeup events posted by {!poke}: with direct handoff this
    counts exactly one per token transfer to a blocked waiter (plus any
    eligibility changes that re-notify a not-yet-blocked winner). *)

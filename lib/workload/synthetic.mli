(** Deterministic synthetic programs generated from a seed.

    A synthetic program is a pure function of [(seed, threads, rounds)]:
    every worker executes a scripted mix of compute chunks, lock-protected
    updates, shared writes and barrier waits derived from a SplitMix
    stream.  They are the fuzzing substrate for the determinism property
    tests, and the [stress] CLI command runs sweeps of them.

    Two shapes are provided: {!make} (the general mix) and
    {!make_lock_heavy} (no barriers; dense short critical sections, the
    coarsening-sensitive pattern). *)

val make : seed:int -> ?rounds:int -> unit -> Api.t
(** Workers execute [rounds] random operations each (work / locked update
    / shared write / barrier) and then pad barrier arrivals so every
    worker passes the barrier the same number of times. *)

val make_lock_heavy : seed:int -> ?rounds:int -> unit -> Api.t
(** Workers take [rounds] (default 40) random critical sections each, over
    8 locks. *)

val op_mix : seed:int -> rounds:int -> (int * int * int * int)
(** For tests: how many (work, locked, write, barrier) ops one worker's
    script contains, for worker 0 of the given seed. *)

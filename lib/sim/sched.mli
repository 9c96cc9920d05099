(** Work-stealing green-thread scheduler over real OCaml 5 domains:
    the real-parallel counterpart of {!Engine}.  Green threads are
    effect fibers multiplexed over [workers] domains via per-worker
    Chase–Lev deques ({!Wsq}) plus an MPMC injection queue ({!Mpmc}).

    A global runtime lock (GRL) gives green bodies the same
    mutual-exclusion guarantee they had on the single-domain DES; it is
    held for the whole body except while suspended in {!block} or
    explicitly released via {!unlock}/{!lock} around real work.
    {!block}/{!wakeup} keep {!Engine.block}'s binary-permit
    semantics. *)

type t

val create : ?workers:int -> unit -> t
(** [workers] defaults to 1 (clamped to at least 1). *)

val spawn : t -> name:string -> (unit -> unit) -> int
(** Register a green thread (ids sequential from 0) and make it
    runnable.  Call before {!run} or from a green body (GRL held). *)

val block : t -> reason:string -> unit
(** Suspend the calling green until {!wakeup}; must be called from a
    green body with the GRL held.  Consumes a pending permit instead of
    suspending when one is present. *)

val wakeup : t -> int -> unit
(** Make a blocked green runnable, or leave a permit if it is running.
    No-op for finished/unknown ids.  Requires the GRL. *)

val lock : t -> unit
val unlock : t -> unit
(** The global runtime lock, for releasing around real work. *)

val run : t -> unit
(** Run workers until quiescence; the calling domain is worker 0.
    Re-raises the first exception from a green body.
    @raise Engine.Deadlock if greens are still blocked at quiescence. *)

(** Critical-path analysis over the thread-state interval streams.

    The dependency DAG is implicit in the profile: within a thread,
    each interval depends on its predecessor; a completed wait interval
    additionally depends on the action of the thread that ended it (the
    [waker] recorded by the runtime — a grant, a serial-turn handoff, a
    fence release, or the best-effort token enabler); and a thread's
    first interval depends on its parent's spawn.

    {!compute} decodes each thread's intervals from the run's
    {!Obs.Tracer}, then walks this DAG backward from the globally latest
    interval end.  Waits with a known waker are {e bridged} — the path jumps to
    the waker and the wait contributes nothing; waits without one are
    attributed to the path as wait time (reported separately as
    [unbridged_wait_ns], so the quality of the attribution is visible).
    The result partitions the path by state, thread and chunk: the
    states on the critical path are the ones whose acceleration can
    shorten the run, which is what distinguishes "the run spent 40% of
    total thread-time in token waits" from "token waits gate the wall
    clock". *)

type t = {
  path_ns : int;  (** total attributed ns on the path *)
  wall_ns : int;
  by_state : int array;  (** on-path ns per state, by {!Obs.Thread_state.index} *)
  by_thread : (int * int) list;  (** (tid, on-path ns), descending ns *)
  top_chunks : (int * int * int) list;  (** (tid, chunk, on-path ns), top 10 *)
  segments : int;  (** intervals visited *)
  bridged : int;  (** waits crossed to their waker *)
  unbridged_wait_ns : int;  (** wait ns attributed for lack of a waker *)
  truncated : bool;  (** safety cap hit; [path_ns] is then a lower bound *)
}

val compute : Profile.t -> Obs.Tracer.t -> t
(** [compute p tracer]: [tracer] recorded the intervals of the run [p]
    profiles, and of no other run. *)

val projections : t -> (string * float) list
(** Per-state analytic speedup ceiling: eliminating all on-path time of
    state [s] can speed the run up by at most
    [wall / (wall - on_path(s))] (COZ-style what-if upper bound; compare
    with the measured {!Whatif} numbers).  Only states with on-path time
    appear. *)

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit

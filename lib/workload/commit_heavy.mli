(** Commit-dominated scaling stressor for the parallel sharded commit.

    Each worker repeatedly dirties a {e strided} page set (pages
    [k*256 + i] for worker [i]) and hits an uncontended coordination
    point, producing regular commits whose footprints are disjoint
    across workers and span every segment shard.  Per-commit page count
    is independent of the thread count, so commit cost per committed
    page as threads scale measures exactly the commit path's
    scalability (the BENCH_commit series).

    Not part of {!Registry.all}: it is a measurement instrument for the
    commit bench and CI smoke, not a paper benchmark. *)

val make : unit -> Api.t
(** Each worker runs 8 rounds. *)

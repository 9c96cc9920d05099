(** Phoenix [kmeans]: iterative clustering.

    Each iteration assigns points (parallel compute, private writes),
    folds partial centroid sums into shared state under a lock, and
    synchronizes at a barrier.  Mixed lock + barrier pressure; one of the
    Fig 11 scalability-problem benchmarks for DThreads/DWC. *)

val make : ?scale:float -> unit -> Api.t

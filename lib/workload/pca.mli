(** Phoenix [pca]: two parallel reduction phases separated by barriers.

    Phase 1 computes row means (private), phase 2 the covariance folds
    into shared state under locks.  Moderate propagation volume; in the
    paper DThreads/DWC slightly outperform Consequence here. *)

val make : ?scale:float -> unit -> Api.t

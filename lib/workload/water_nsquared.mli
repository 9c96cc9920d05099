(** SPLASH-2 [water_nsquared]: O(n^2) molecular dynamics.

    Each thread performs many fine-grained per-molecule lock
    acquisitions with very short critical sections between per-step
    barriers.  This is the paper's pathological case for coarsening at
    32 threads (section 5/6): the coarsened token hold blocks everyone
    else's high-rate lock traffic. *)

val make : ?scale:float -> unit -> Api.t

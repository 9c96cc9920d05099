(** Phoenix [linear_regression]: the shortest benchmark in the suite.

    Tiny total runtime (the paper notes executions below 500 ms), so
    startup costs — process forks, first-touch faults — dominate and
    deterministic runtimes look comparatively bad.  DThreads/DWC
    outperform Consequence here in the paper (Fig 10). *)

val make : ?scale:float -> unit -> Api.t

(** Commit-path scaling study: serial vs pipelined sharded commit on the
    {!Workload.Commit_heavy} stressor across a thread sweep (default 8,
    16, 32, 64, 128, 256).

    Reports commit cost per committed page, wall time per page and
    deterministic-wait totals for both configurations, plus notes on the
    flatness of the pipelined per-page series, the end-to-end speedup at
    the largest thread count, and pairwise witness identity (serial and
    pipelined runs must produce byte-identical witnesses — the
    optimization relocates cost, never data). *)

val run : ?threads:int list -> ?seed:int -> unit -> Fig_output.t

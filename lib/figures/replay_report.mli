(** The record/replay bench section ([BENCH_replay.json]).

    For each of {!Workload.Registry.hardest_five}: schedule-log size
    (events and serialized bytes), record overhead (host CPU time of a recording run vs an
    untracked one, plus the simulated-time delta, which must be exactly
    zero — recording is observer-only), and replay throughput (events
    checked per host second, with the replay required to reproduce the
    recorded witnesses divergence-free).  One pthreads row demonstrates
    interleaving pinning; an explorer line summarizes a small
    boundary-perturbation neighborhood. *)

val run : ?threads:int -> ?seed:int -> unit -> Fig_output.t

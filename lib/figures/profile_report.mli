(** The determinism-profiler bench section ([BENCH_profile.json]).

    Profiles every registry workload under consequence-ic:
    per-benchmark thread-state shares with the conservation verdict,
    critical-path composition per state, and — for ferret and kmeans
    only, since each costs a record plus one replay per scenario — the
    measured what-if speedups. *)

val run : ?threads:int -> ?seed:int -> unit -> Fig_output.t

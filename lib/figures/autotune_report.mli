(** Auto-tuning report ([BENCH_autotune.json]): per-workload simulated
    wall time under the untuned default, the shipped controller
    schedule, the searched parameterization and the best hand-tuned
    grid point, with the acceptance verdicts
    (searched within 5% of hand-best everywhere; strictly faster than
    the default on at least half the workloads; winners seed-stable and
    replay-checked) as PASS/FAIL notes. *)

val run : ?threads:int -> ?seed:int -> unit -> Fig_output.t
(** The full registry; defaults 8 threads, seed 1.  Runs the quick
    search (shortened hill-climb, no random restarts or exploration
    floor — bench-harness friendly). *)

(** The determinism payoff for correctness tooling (Deterministic
    Consistency / Pot): race-audit every benchmark under a
    deterministic runtime and show the report is a reproducible
    artifact — byte-identical across seeds — while the same audit under
    pthreads yields seed-dependent conflict counts on the racy
    programs. *)

val run : ?threads:int -> unit -> Fig_output.t
(** Audits every registry workload under consequence-ic and pthreads at
    seeds 1, 2 and 42 (default 4 threads). *)

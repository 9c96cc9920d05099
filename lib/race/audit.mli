(** One-call race audit of a workload under any runtime.

    Attaches a {!Detector} as the runtime's event observer, runs the
    program, and condenses the verdicts into a {!Report}.  The run
    itself is unchanged by the audit (observation is determinism- and
    timing-neutral in every runtime). *)

val run :
  ?seed:int -> ?nthreads:int -> Runtime.Run.runtime -> Api.t -> Report.t * Stats.Run_result.t
(** Audit one run; returns the report and the ordinary run result. *)

val stable_across_seeds :
  ?nthreads:int -> seeds:int list -> Runtime.Run.runtime -> Api.t -> bool
(** Whether {!Report.to_string} is byte-identical over all [seeds] —
    true for every workload under every deterministic runtime, and
    generally false under pthreads for racy workloads. *)

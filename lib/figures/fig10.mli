(** Fig 10: runtime of each deterministic library normalized to pthreads,
    per benchmark, best configuration over a thread-count sweep.

    Paper headline claims this figure carries:
    - worst-case Consequence-IC slowdown 3.9x (DThreads 12.5x, DWC 11.0x);
    - 14 of 19 programs at or below 2.5x under Consequence-IC;
    - 2.8x / 2.2x average improvement over DThreads / DWC on the five
      most challenging programs.

    The table has a row per {!Workload.Registry.all} entry; the notes
    that carry these claims fold over {!Workload.Registry.paper} only. *)

val threads_sweep : int list
(** [2; 4; 8; 16; 32] — the paper measured 2-32 threads. *)

type row = {
  benchmark : string;
  ratios : (string * float) list;  (** runtime name, best-wall / pthreads-best-wall *)
}

val measure : ?threads:int list -> ?seed:int -> unit -> row list

val run : ?threads:int list -> ?seed:int -> unit -> Fig_output.t

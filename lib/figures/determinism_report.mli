(** The determinism claim itself (paper section 2), checked empirically:
    for every benchmark, every deterministic library must produce
    identical witnesses (final memory, sync-operation order, program
    output) across perturbed executions, while pthreads is free to
    diverge. *)

type row = {
  benchmark : string;
  stable : (string * bool) list;  (** runtime, witnesses identical across seeds *)
  pthreads_variants : int;  (** distinct pthreads witnesses observed *)
}

val measure : ?threads:int -> ?seeds:int list -> unit -> row list
val run : ?threads:int -> unit -> Fig_output.t

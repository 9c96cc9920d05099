(** Per-run race-audit summaries.

    A report condenses one audited run into value-deterministic data:
    conflict totals, the racy/sync-ordered split, a per-page breakdown
    of racy conflicts, and a capped list of sample findings rendered
    with {!Runtime.Rt_event.pp}.  Everything derives from the event
    stream in stream order — no hash-table iteration, no wall-clock —
    so under a deterministic runtime [to_string] and [to_json] are
    byte-identical across seeds. *)

type t = {
  workload : string;
  runtime : string;
  nthreads : int;
  events : int;  (** events the detector consumed *)
  conflicts : int;  (** conflict runs reported by the runtime *)
  racy : int;
  sync_ordered : int;
  conflict_bytes : int;
  racy_bytes : int;
  racy_pages : (int * int) list;  (** page -> racy conflict count, ascending *)
  samples : string list;  (** first few racy findings, human-rendered *)
  sample_events : Runtime.Rt_event.t list;
      (** the same findings' [Conflict] events verbatim — exported
          structured in {!to_json} via {!Runtime.Rt_event.to_json} *)
}

val of_detector : workload:string -> runtime:string -> nthreads:int -> Detector.t -> t

val to_json : t -> Obs.Json.t
val to_string : t -> string
(** The human-readable report — the unit of the byte-identical
    determinism guarantee. *)

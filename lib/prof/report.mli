(** One-call determinism profile: run a workload with the collector
    attached, aggregate thread-state time, compute the critical path,
    and (optionally) measure what-if cost projections by replay.

    This is the engine behind the [profile] CLI subcommand and the
    [profile] bench section. *)

type t = {
  runtime_name : string;
  result : Stats.Run_result.t;
  profile : Profile.t;
  cpath : Critical_path.t;
  whatif : Whatif.t option;
}

val run :
  ?runtime:Runtime.Run.runtime ->
  ?costs:Runtime.Cost_model.t ->
  ?seed:int ->
  ?nthreads:int ->
  ?whatif:bool ->
  ?tracer:Obs.Tracer.t ->
  Api.t ->
  t
(** Profile one run (default [consequence_ic], seed 1).  [whatif]
    additionally records and replays the schedule under the
    {!Whatif.scenarios} (a second run plus one replay per scenario,
    and a measured run under the pipelined sharded-commit config).
    The run is recorded into [tracer], whose intervals the critical
    path walks; pass one to export the same run to Perfetto.  It must
    not hold another run's events.  Without one, a private tracer keeps
    the intervals only. *)

val conservation_ok : t -> bool

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit

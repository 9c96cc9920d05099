(** Per-workload tuned profiles: the auto-tuner's durable output.

    A profile pins the controller {!Runtime.Tune_ctl.params} the offline
    search selected for one workload, together with enough provenance
    (base runtime, thread count, seed, search source, before/after
    simulated wall time) to judge whether it still applies.  Profiles
    serialize to standalone JSON files (conventionally
    [tune/profiles/<workload>.tune.json]) and are loaded back by the CLI
    ([run --profile], [tune show]). *)

type t = {
  workload : string;
  runtime : string;  (** base config name the search tuned against *)
  nthreads : int;
  seed : int;
  source : string;  (** winning candidate, e.g. ["hill-climb"], ["hand-default"] *)
  params : Runtime.Tune_ctl.params;
  wall_default_ns : int;  (** untuned simulated wall time at search time *)
  wall_tuned_ns : int;  (** tuned simulated wall time at search time *)
}

val apply : t -> Runtime.Config.t -> Runtime.Config.t
(** {!Runtime.Config.with_adaptive_tuning} with the profile's params. *)

val filename : t -> string
(** Conventional basename: [<workload>.tune.json]. *)

val save : t -> string -> unit
val load : string -> (t, string) result
val pp : Format.formatter -> t -> unit

(** Uniform entry point over all five threading libraries of the
    evaluation (section 5). *)

type runtime =
  | Pthreads
  | Det of Config.t
  | Domains of Config.t
      (** The same algorithms as [Det] executed on real OCaml 5 domains
          with work-stealing ({!Domains_rt}).  Witness-identical to
          [Det]; [wall_ns] is real wall-clock, so it is excluded from
          {!all} (whose members must reproduce [wall_ns] bit-for-bit
          across runs).  The worker count follows the process-wide [-j]
          knob ({!Sim.Par.set_jobs}).  [Domains Config.consequence_ic]
          resolves by {!of_name} as ["consequence-ic-domains"]. *)

val name : runtime -> string

val pthreads : runtime
val dthreads : runtime
val dwc : runtime
val consequence_rr : runtime
val consequence_ic : runtime

val consequence_pipe : runtime
(** [Det Config.consequence_pipe]: the scaled commit path (pipelined
    sharded commit + incremental GC).  Witness-identical to
    {!consequence_ic}; excluded from {!all} so the four-library figure
    sweeps are unchanged, but resolvable via {!of_name} ("consequence-
    pipe", the CLI's [pipe]). *)

val all : runtime list
(** pthreads + the four deterministic libraries, in Fig 10 display order. *)

val of_name : string -> runtime option
(** Resolve a preset by its {!name}.  Covers {!all} plus
    {!consequence_pipe} and [Domains Config.consequence_ic] (which [all]
    excludes), so
    schedules recorded under those runtimes still resolve, and the short
    aliases [rr], [ic], [consequence], [pipe] and [domains]. *)

val names : string list
(** Every runtime's {!name}, in display order — the full runtime set
    CLI help and error messages should list.  {!of_name} also resolves
    the aliases, which this list leaves out. *)

val deterministic : runtime -> bool
(** Whether the runtime guarantees determinism (i.e. everything except
    [Pthreads] — assuming exact performance counters). *)

val run :
  runtime ->
  ?costs:Cost_model.t ->
  ?seed:int ->
  ?nthreads:int ->
  ?observer:Rt_event.observer ->
  ?obs:Obs.Sink.t ->
  ?schedule:bool ->
  Api.t ->
  Stats.Run_result.t
(** [observer] receives the runtime's happens-before events.  Under the
    deterministic runtimes the stream follows the global token order and
    is seed-invariant; under [Pthreads] it follows simulated wall-clock
    order and varies with the seed for racy programs.  [obs] receives
    timing spans and thread-state intervals on any runtime; see
    {!Det_rt.run} for the determinism-neutrality guarantee.  [schedule]
    (default false) fills {!Stats.Run_result.schedule}. *)

val best_over_threads :
  runtime ->
  ?seed:int ->
  threads:int list ->
  Api.t ->
  Stats.Run_result.t
(** Run at each thread count and keep the fastest result — the
    methodology of Fig 10 ("measured using 2-32 threads, and retained the
    corresponding best result"). *)

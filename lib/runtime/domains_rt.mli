(** Real-multicore backend: {!Det_rt}'s algorithms on OCaml 5 domains.

    Green threads are multiplexed over [domains] worker domains by the
    work-stealing scheduler ({!Sim.Sched}); the GMIC token, versioned
    workspaces and sharded TSO commits are the very same code the DES
    runs, so witnesses are byte-identical to the [consequence-ic]/
    [pipe] runtimes at any domain count and seed (enforced in
    test/runtime).

    Differences from the DES that do {e not} reach the witness:
    [wall_ns] and every wait metric are real wall-clock ns; chunk work
    is executed as a real spin outside the runtime lock; segment GC is
    disabled (snapshot prefixes must not move under lock-free readers),
    so [peak_mem_pages] is not comparable; and [metrics] gains wall:*
    calibration counters. *)

val name : string

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()] — what speedup is physically
    attainable on this machine. *)

val run :
  Config.t ->
  ?domains:int ->
  ?costs:Cost_model.t ->
  ?seed:int ->
  ?nthreads:int ->
  ?observer:Rt_event.observer ->
  ?obs:Obs.Sink.t ->
  ?schedule:bool ->
  Api.t ->
  Stats.Run_result.t
(** [domains]: worker-domain count; [0] means auto
    ([Domain.recommended_domain_count]), omitted means the process-wide
    [-j] knob ({!Sim.Par.jobs}). *)

(** Schedule logs: the record half of record/replay.

    A schedule log captures every deterministic decision of a run as the
    {!Runtime.Rt_event} stream the runtime already emits in commit/token
    order: token-grant effects (Acquire/Release edges), chunk boundaries
    (Boundary events with per-thread retired-instruction counts, split
    into overflow interrupts and chunk-end counter reads), commit version
    ids with their page sets, per-commit workspace digests (Commit_hash),
    and merge conflicts.  Together with the run's seed this pins the
    execution completely:

    - on the deterministic runtimes the overflow boundaries are the only
      decisions not already implied by program + seed, and {!boundaries}
      extracts them in the exact shape
      {!Runtime.Config.with_scripted_schedule} consumes;
    - on [pthreads] the simulated interleaving is a function of the seed
      alone, so a recorded log {e pins} a lucky or unlucky interleaving:
      re-running with the same seed must reproduce the event stream
      byte-for-byte, and {!Replayer} checks that it does.

    Logs serialize to a self-contained JSON document (conventionally
    [<name>.schedule.json]) and round-trip through {!to_json}/{!of_json}
    using the same per-event schema as the trace exporters. *)

type meta = {
  program : string;
  runtime : string;  (** preset name, e.g. ["consequence-ic"] or ["pthreads"] *)
  nthreads : int;
  seed : int;
  wall_ns : int;  (** simulated wall time of the recorded run *)
  mem_hash : string;
  sync_order_hash : string;
  output_hash : string;
}

type t = { meta : meta; events : Runtime.Rt_event.t array }

val record :
  Runtime.Run.runtime ->
  ?costs:Runtime.Cost_model.t ->
  ?seed:int ->
  ?nthreads:int ->
  Api.t ->
  t * Stats.Run_result.t
(** Run [program] under [runtime] with a collecting observer attached and
    return the schedule log plus the run result.  Recording is
    observer-only: it charges no simulated time, so the recorded
    [wall_ns] and witnesses are identical to an untracked run (the
    determinism-neutrality property the test suite asserts). *)

val length : t -> int
val witness : t -> string
(** [mem:<h>|sync:<h>|out:<h>], same shape as
    {!Stats.Run_result.deterministic_witness}. *)

val boundaries : t -> int array array
(** Per-thread ascending retired-instruction counts of the {e overflow}
    boundaries ([Boundary { overflow = true; _ }]), indexed by tid —
    exactly the argument of {!Runtime.Config.with_scripted_schedule}.
    Chunk-end boundaries are excluded: they are placed by the program's
    own sync ops and need no forcing.  Empty arrays for threads that
    never overflowed; [[||]] for a pthreads log.  A recorded or
    {!of_json}-validated log always yields strictly ascending
    positive boundaries. *)

val chunk_of : t -> index:int -> tid:int -> int
(** The 0-based chunk ordinal of thread [tid] at event position [index]:
    the number of chunk-end boundaries [tid] recorded strictly before
    [index].  Used to localize divergences. *)

val context : t -> index:int -> ?radius:int -> unit -> (int * Runtime.Rt_event.t) list
(** The recorded events within [radius] (default 3) positions of
    [index], with their stream positions. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
(** [Error] for a malformed document, and for a well-formed one no run
    could have recorded: [nthreads] below 1, an event on a thread that
    is neither the main thread (tid 0) nor spawned in the log, or a
    thread's overflow boundaries not positive and strictly ascending. *)

val save : t -> string -> unit
val load : string -> (t, string) result
val pp_meta : Format.formatter -> t -> unit

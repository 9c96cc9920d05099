(** The replay half of record/replay: log-driven re-execution with an
    online divergence detector.

    Replaying a {!Schedule} log re-runs its program under the recorded
    preset, seed and thread count, with the recorded {e decisions}
    substituted for the policies that produced them:

    - deterministic presets run with
      {!Runtime.Config.with_scripted_schedule}, which forces every
      counter-overflow chunk boundary at its recorded
      retired-instruction count instead of letting the adaptive overflow
      policy choose — chunk-end boundaries fall out of the program's own
      sync ops, so this pins the entire schedule;
    - [pthreads] re-runs under the recorded seed, which alone determines
      the simulated interleaving.

    While the replay runs, a checker observer compares every emitted
    {!Runtime.Rt_event} against the log, element by element: token-order
    edges, chunk boundaries and their instruction counts, commit version
    ids, and the per-commit workspace digests ([Commit_hash]).  The
    first mismatch is reported with its thread, chunk index and a window
    of surrounding log events — enough to localize {e where} an
    execution left the recorded schedule, not merely that it did.

    Logs recorded under the real-multicore [domains] preset re-execute
    on the scripted DES like any deterministic preset, but skip the
    event-by-event walk: a real-time backend's global event interleave
    is timing-dependent (waiters emit on physical wakeup; intermediate
    overflow publications vary in count and position), so faithfulness
    is judged by the witness hashes alone and [checked] is 0. *)

type divergence = {
  index : int;  (** position in the event stream of the first mismatch *)
  tid : int;  (** thread the divergent event belongs to *)
  chunk_index : int;  (** 0-based chunk ordinal of [tid] at the divergence *)
  expected : Runtime.Rt_event.t option;  (** [None]: the replay emitted extra events *)
  actual : Runtime.Rt_event.t option;  (** [None]: the replay ended early *)
  context : (int * Runtime.Rt_event.t) list;  (** recorded events around [index] *)
}

type outcome = {
  result : Stats.Run_result.t;
  divergence : divergence option;
  checked : int;  (** events that matched before the divergence (all, if none) *)
  hash_match : bool;  (** final witnesses equal the recorded ones *)
}

val replay :
  ?costs:Runtime.Cost_model.t ->
  ?runtime:Runtime.Run.runtime ->
  Schedule.t ->
  Api.t ->
  outcome
(** Replay [program] against the log.  [runtime] overrides
    {!runtime_of} (for replaying a log recorded under a non-preset
    config).  [costs] must match the recording run (default cost model
    on both sides). *)

val ok : outcome -> bool
(** No divergence and matching final witnesses. *)

val guarded : (unit -> 'a) -> ('a, string) result
(** [guarded (fun () -> replay log program)] returns a run that fails
    as [Error] rather than raising.  A log can pass
    {!Schedule.of_json} and still describe a run its program cannot
    make ([nthreads] 100000 overflows kmeans' heap), so the runtime's
    [Invalid_argument], a deadlock or an exhausted event budget becomes
    the message.  The CLI's [replay] and [explore] run through it. *)

val pp_outcome : Format.formatter -> outcome -> unit

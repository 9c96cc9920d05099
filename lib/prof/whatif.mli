(** What-if cost projection: measured (not merely analytic) speedup
    estimates, COZ-style.

    The schedule of one run is recorded with [lib/replay], then replayed
    under perturbed {!Runtime.Cost_model}s — merges twice as fast,
    commits free, token handoffs free, ….  Because the deterministic
    runtimes order events by logical instruction counts and the replay
    scripts the overflow boundaries, the re-execution performs the
    {e same} schedule at different prices; the resulting wall-clock
    ratio is the measured answer to "what would optimizing X buy on this
    workload".  Unlike {!Critical_path.projections} (per-state upper
    bounds), these numbers include second-order effects such as wait
    times that shrink when the operation they wait for gets cheaper.

    Each replay cross-checks the recording.  [diverged] is the
    invalidating case — the perturbed run produced {e different
    witnesses}, so the ratio does not compare like with like (expected
    for [pthreads] recordings, whose interleaving is time-driven).
    [stream_reordered] is the benign case: witnesses match but the event
    stream shuffled (e.g. barrier-departure wake order when wakeups get
    cheaper) — precisely the second-order scheduling effect the
    projection is meant to include. *)

type row = {
  scenario : string;
  descr : string;
  wall_ns : int;
  speedup : float;  (** recorded wall / scenario wall *)
  diverged : bool;  (** witnesses differ: projection invalid *)
  stream_reordered : bool;  (** same witnesses, shuffled event stream *)
}

type pipelined = {
  pipe_wall_ns : int;  (** measured wall under pipelined sharded commit *)
  pipe_speedup : float;  (** recorded wall / pipelined wall *)
  commit_free_wall_ns : int;  (** the commit-free scenario's projected wall *)
  remaining_gap : float;
      (** pipelined wall / commit-free wall: how far the implemented
          optimization remains from the projection's floor (1.0 = all
          commit-attributed headroom captured) *)
  pipe_witness_ok : bool;  (** pipelined run reproduced the witnesses *)
}

type t = {
  runtime_name : string;
  base_wall_ns : int;
  rows : row list;
  pipelined : pipelined option;
      (** Populated when the recorded runtime is a deterministic config
          without [pipelined_commit]: the same workload is re-run (not
          replayed) under {!Runtime.Config.with_pipelined_commit},
          giving the {e measured} counterpart to the commit-free
          {e projection} and the remaining gap between them. *)
}

val scenarios : (string * string * (Runtime.Cost_model.t -> Runtime.Cost_model.t)) list
(** The scenario registry: (name, description, cost transform). *)

val run :
  ?runtime:Runtime.Run.runtime ->
  ?seed:int ->
  ?nthreads:int ->
  Api.t ->
  t
(** Record one run (default [consequence_ic], seed 1) and replay every
    scenario against it.  It also re-runs the workload under the
    pipelined sharded-commit config to populate [pipelined] — a full
    second execution. *)

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit

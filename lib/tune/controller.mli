(** Online-half helpers for the self-tuning controller: the predicted
    decision schedule, its extraction from a recorded event stream, and
    the profile-to-params mapping.

    The controller kernel ({!Runtime.Tune_ctl}) is pure, so its whole
    behaviour over a run is a finite, precomputable list: one decision
    per epoch at retired-instruction milestone [epoch * period].  Every
    thread applies that same schedule; a thread only falls short of the
    full list when it retires fewer instructions than the last
    milestone.  That gives the cross-runtime determinism property its
    testable shape: on every runtime and seed, each thread's recorded
    {!Runtime.Rt_event.Tune_decision} stream must be a {e prefix} of the
    prediction.  The streams are identical across runtimes that share a
    sync order (instruction-count ordering: ic, pipe, domains); under
    round-robin ordering a thread's share of a pipeline's work, and so
    its prefix length, can differ. *)

type applied = {
  epoch : int;
  ic : int;  (** retired-instruction count at which the decision applied *)
  decision : Runtime.Tune_ctl.decision;
}

val predicted : Runtime.Tune_ctl.params -> applied list
(** The full decision schedule, epochs [0 .. final_epoch], with exact
    milestone instruction counts. *)

val of_events : Runtime.Rt_event.t list -> (int * applied list) list
(** Per-thread decision streams extracted from a recorded event stream,
    ascending tid, each in emission order. *)

val matches_prediction : Runtime.Tune_ctl.params -> Runtime.Rt_event.t list -> bool
(** Every per-thread stream is a prefix of {!predicted} and every
    decision applied at its exact milestone — the replay/determinism
    acceptance check. *)

val params_of_profile : Prof.Profile.t -> Runtime.Tune_ctl.params
(** Derive controller targets from a profiler state-share summary
    (via {!Prof.Profile.state_share}, the single shared accessor):
    token-wait-heavy workloads get smaller chunks and shorter coarsened
    holds, commit-heavy workloads a larger coarsening budget,
    overflow-heavy (compute-bound) workloads larger chunks.  Pure
    arithmetic on deterministic inputs; the result always passes
    {!Runtime.Tune_ctl.validate}. *)

(** Offline replay-driven auto-tuner (the subsystem's search half).

    For one registry workload, evaluate controller parameterizations by
    their {e simulated} wall time — runs on the DES runtimes are pure
    functions of (program, config, seed), so every evaluation is exact
    and repeatable — and select the best of:

    - the untuned default (the identity point);
    - a hand grid of static configurations (epochs = 0 degenerate
      controller, bit-identical to setting the knobs in {!Runtime.Config});
    - the shipped annealing schedule ({!Runtime.Tune_ctl.default});
    - a profile-derived candidate ({!Controller.params_of_profile} over
      one collector run);
    - seeded hill-climbing with random restarts over the knob space.

    The hand grid is a subset of the candidate set and its default point
    ties the untuned config exactly, so [wall_searched_ns <=
    wall_hand_best_ns <= wall_default_ns] holds by construction.

    The winner is then cross-checked: witness stability across seeds,
    a scripted record/replay with the controller's
    {!Runtime.Rt_event.Tune_decision} events re-verified against the
    pure prediction, and (full mode) a boundary-perturbation floor from
    {!Replay.Explore} showing how much of the win chunk placement alone
    could account for. *)

type t = {
  workload : string;
  base_runtime : string;  (** untuned config name the search ran against *)
  nthreads : int;
  seed : int;
  wall_default_ns : int;
  wall_controller_ns : int;  (** shipped {!Runtime.Tune_ctl.default} schedule *)
  wall_profile_ns : int;  (** profile-derived candidate *)
  hand_best_name : string;
  wall_hand_best_ns : int;
  wall_searched_ns : int;
  searched : Runtime.Tune_ctl.params;  (** the winning parameterization *)
  searched_from : string;  (** candidate family the winner came from *)
  evaluations : int;  (** simulated runs performed (memoized by params) *)
  boundary_floor_ns : int option;
      (** min wall over an {!Replay.Explore} neighborhood of the winner;
          [None] in quick mode or with checks disabled *)
  seed_stable : bool;  (** winner's witness identical at seeds 1 and 7 *)
  replay_checked : bool;
  replay_ok : bool;
      (** scripted replay matched event-by-event and every
          [Tune_decision] matched the pure prediction *)
}

val hand_grid : (string * Runtime.Tune_ctl.params) list
(** The named static grid; its ["hand-default"] point reproduces the
    untuned configuration bit-for-bit. *)

val search :
  ?nthreads:int ->
  ?seed:int ->
  ?quick:bool ->
  ?check:bool ->
  string ->
  t
(** [search name] tunes registry workload [name] against
    {!Runtime.Config.consequence_ic}, [nthreads] (default 8), [seed]
    (default 1).  [quick]
    (default false) shortens the hill-climb, drops the random restarts
    and skips the exploration floor — the CI smoke setting.  [check]
    (default true) controls the winner cross-checks.
    Raises [Not_found] for an unknown workload. *)

val to_profile : t -> Profiles.t
(** The durable artifact for [tune/profiles/]. *)

val pp : Format.formatter -> t -> unit

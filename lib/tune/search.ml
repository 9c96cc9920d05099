module Ctl = Runtime.Tune_ctl
module Cfg = Runtime.Config

type t = {
  workload : string;
  base_runtime : string;
  nthreads : int;
  seed : int;
  wall_default_ns : int;
  wall_controller_ns : int;
  wall_profile_ns : int;
  hand_best_name : string;
  wall_hand_best_ns : int;
  wall_searched_ns : int;
  searched : Ctl.params;
  searched_from : string;
  evaluations : int;
  boundary_floor_ns : int option;
  seed_stable : bool;
  replay_checked : bool;
  replay_ok : bool;
}

(* A static grid point: epochs = 0, warm = target, so the controller
   degenerates to the fixed configuration (zero milestone overhead; the
   epoch-0 retarget at thread creation equals policy creation).  The
   hand-default point below therefore ties the untuned config
   bit-for-bit, which is what guarantees searched <= hand-best <=
   default by construction. *)
let fixed ~base ~cap ~coarsen ~floor ~ccap =
  {
    Ctl.period = Ctl.default.Ctl.period;
    epochs = 0;
    warm_base = base;
    warm_cap = cap;
    warm_coarsen = coarsen;
    target_base = base;
    target_cap = cap;
    target_coarsen = coarsen;
    coarsen_floor = floor;
    coarsen_cap = ccap;
  }

(* The grid a practitioner would sweep by hand: the shipped defaults
   plus chunk-size and coarsening extremes in both directions. *)
let hand_grid =
  [
    ("hand-default", fixed ~base:5_000 ~cap:60_000 ~coarsen:300_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-small-chunk", fixed ~base:2_000 ~cap:24_000 ~coarsen:150_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-big-chunk", fixed ~base:12_000 ~cap:144_000 ~coarsen:300_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-huge-chunk", fixed ~base:30_000 ~cap:240_000 ~coarsen:300_000 ~floor:10_000 ~ccap:2_000_000);
    ("hand-coarse", fixed ~base:5_000 ~cap:60_000 ~coarsen:800_000 ~floor:10_000 ~ccap:4_000_000);
    ("hand-fine", fixed ~base:5_000 ~cap:60_000 ~coarsen:100_000 ~floor:10_000 ~ccap:500_000);
  ]

let clamp lo hi v = max lo (min hi v)

(* One PRNG-driven knob mutation: double or halve one of the six value
   knobs (or step the epoch count), then re-establish the cap/base and
   warm/target orderings so the result always validates. *)
let mutate prng (p : Ctl.params) =
  let up = Sim.Prng.bool prng in
  let scale v = if up then v * 2 else max 1 (v / 2) in
  let p =
    match Sim.Prng.int prng ~bound:7 with
    | 0 -> { p with Ctl.target_base = clamp 500 200_000 (scale p.Ctl.target_base) }
    | 1 -> { p with Ctl.target_cap = clamp 2_000 2_000_000 (scale p.Ctl.target_cap) }
    | 2 -> { p with Ctl.target_coarsen = clamp 20_000 4_000_000 (scale p.Ctl.target_coarsen) }
    | 3 -> { p with Ctl.warm_base = clamp 500 200_000 (scale p.Ctl.warm_base) }
    | 4 -> { p with Ctl.warm_coarsen = clamp 20_000 4_000_000 (scale p.Ctl.warm_coarsen) }
    | 5 -> { p with Ctl.period = clamp 1_000 50_000 (scale p.Ctl.period) }
    | _ -> { p with Ctl.epochs = clamp 0 12 (if up then p.Ctl.epochs + 2 else p.Ctl.epochs - 2) }
  in
  let p = { p with Ctl.target_cap = max p.Ctl.target_cap p.Ctl.target_base } in
  let p = { p with Ctl.warm_cap = max p.Ctl.warm_cap p.Ctl.warm_base } in
  let p =
    { p with Ctl.coarsen_floor = min p.Ctl.coarsen_floor p.Ctl.target_coarsen }
  in
  let p =
    { p with Ctl.coarsen_cap = max p.Ctl.coarsen_cap (max p.Ctl.target_coarsen p.Ctl.warm_coarsen) }
  in
  Ctl.validate p;
  p

(* A random restart point: independent draws per knob, log-uniform-ish
   over the plausible ranges via repeated doubling from the minimum. *)
let random_params prng =
  let pick lo hi =
    let v = ref lo in
    while !v * 2 <= hi && Sim.Prng.bool prng do
      v := !v * 2
    done;
    !v
  in
  let target_base = pick 1_000 128_000 in
  let target_cap = max target_base (pick 8_000 1_024_000) in
  let target_coarsen = pick 50_000 3_200_000 in
  let p =
    {
      Ctl.period = pick 2_000 32_000;
      epochs = Sim.Prng.int prng ~bound:9;
      warm_base = min 2_000 target_base;
      warm_cap = max (min 2_000 target_base) (min 16_000 target_cap);
      warm_coarsen = min 50_000 target_coarsen;
      target_base;
      target_cap;
      target_coarsen;
      coarsen_floor = min 10_000 target_coarsen;
      coarsen_cap = max 2_000_000 target_coarsen;
    }
  in
  Ctl.validate p;
  p

let search ?(nthreads = 8) ?(seed = 1) ?(quick = false) ?(check = true) name =
  let entry = Workload.Registry.find name in
  let program = entry.Workload.Registry.program in
  let base = Cfg.consequence_ic in
  let evaluations = ref 0 in
  let memo : (Ctl.params, int) Hashtbl.t = Hashtbl.create 64 in
  let wall_of cfg' =
    let res = Runtime.Run.run (Runtime.Run.Det cfg') ~seed ~nthreads program in
    incr evaluations;
    res.Stats.Run_result.wall_ns
  in
  let eval params =
    match Hashtbl.find_opt memo params with
    | Some w -> w
    | None ->
        let w = wall_of (Cfg.with_adaptive_tuning ~params base) in
        Hashtbl.add memo params w;
        w
  in
  let wall_default_ns = wall_of base in
  (* The shipped annealing schedule, straight from Tune_ctl.default. *)
  let wall_controller_ns = eval Ctl.default in
  (* Profile-derived candidate: one collector run on the untuned config,
     mapped through the shared state-share accessor. *)
  let profile_params =
    let c = Prof.Profile.create () in
    let res =
      Runtime.Run.run (Runtime.Run.Det base) ~seed ~nthreads ~obs:(Prof.Profile.sink c) program
    in
    incr evaluations;
    Controller.params_of_profile
      (Prof.Profile.finish c ~wall_ns:res.Stats.Run_result.wall_ns)
  in
  let wall_profile_ns = eval profile_params in
  (* Hand grid. *)
  let graded = List.map (fun (n, p) -> (n, p, eval p)) hand_grid in
  let hand_best_name, _, wall_hand_best_ns =
    List.fold_left (fun (bn, bp, bw) (n, p, w) -> if w < bw then (n, p, w) else (bn, bp, bw))
      (List.hd graded) (List.tl graded)
  in
  (* Hill-climb from the best candidate so far, with seeded random
     restarts: accept a mutation iff it strictly improves. *)
  let best = ref (List.fold_left
    (fun acc (n, p, w) -> match acc with (_, _, bw) when bw <= w -> acc | _ -> (n, p, w))
    ("controller-default", Ctl.default, wall_controller_ns)
    (("profile-derived", profile_params, wall_profile_ns) :: graded))
  in
  let prng = Sim.Prng.create ~seed:(seed + 97) in
  let climb ~label ~iters start start_w =
    let cur = ref start and cur_w = ref start_w in
    for _ = 1 to iters do
      let cand = mutate prng !cur in
      let w = eval cand in
      if w < !cur_w then begin
        cur := cand;
        cur_w := w
      end;
      let _, _, bw = !best in
      if !cur_w < bw then best := (label, !cur, !cur_w)
    done
  in
  let iters = if quick then 6 else 14 in
  let _, start_p, start_w = !best in
  climb ~label:"hill-climb" ~iters start_p start_w;
  if not quick then
    for r = 1 to 2 do
      let start = random_params prng in
      climb ~label:(Printf.sprintf "restart-%d" r) ~iters:8 start (eval start)
    done;
  let searched_from, searched, wall_searched_ns = !best in
  let tuned = Cfg.with_adaptive_tuning ~params:searched base in
  (* Winner checks: cross-seed witness stability, scripted replay with
     the controller's decisions re-checked event-by-event, and the
     boundary-perturbation floor (how much of the win placement alone
     could have bought). *)
  let seed_stable, replay_checked, replay_ok, boundary_floor_ns =
    if not check then (true, false, false, None)
    else begin
      let witness_at seed =
        let res = Runtime.Run.run (Runtime.Run.Det tuned) ~seed ~nthreads program in
        Stats.Run_result.deterministic_witness res
      in
      let seed_stable = String.equal (witness_at 1) (witness_at 7) in
      let log, _ = Replay.Schedule.record (Runtime.Run.Det tuned) ~seed ~nthreads program in
      let scripted =
        Cfg.with_scripted_schedule tuned ~boundaries:(Replay.Schedule.boundaries log)
      in
      let outcome = Replay.Replayer.replay ~runtime:(Runtime.Run.Det scripted) log program in
      let decisions_ok =
        Controller.matches_prediction searched (Array.to_list log.Replay.Schedule.events)
      in
      let floor =
        if quick then None
        else
          let rep = Replay.Explore.explore ~config:tuned ~variants:6 log program in
          Some
            (List.fold_left
               (fun acc v -> min acc v.Replay.Explore.wall_ns)
               rep.Replay.Explore.base.Replay.Explore.wall_ns rep.Replay.Explore.variants)
      in
      (seed_stable, true, Replay.Replayer.ok outcome && decisions_ok, floor)
    end
  in
  {
    workload = name;
    base_runtime = base.Cfg.name;
    nthreads;
    seed;
    wall_default_ns;
    wall_controller_ns;
    wall_profile_ns;
    hand_best_name;
    wall_hand_best_ns;
    wall_searched_ns;
    searched;
    searched_from;
    evaluations = !evaluations;
    boundary_floor_ns;
    seed_stable;
    replay_checked;
    replay_ok;
  }

let to_profile r =
  {
    Profiles.workload = r.workload;
    runtime = r.base_runtime;
    nthreads = r.nthreads;
    seed = r.seed;
    source = r.searched_from;
    params = r.searched;
    wall_default_ns = r.wall_default_ns;
    wall_tuned_ns = r.wall_searched_ns;
  }

let pp ppf r =
  let sp w = 100.0 *. (1.0 -. (float_of_int w /. float_of_int r.wall_default_ns)) in
  Format.fprintf ppf
    "@[<v>%s (%s, %d threads, seed %d): %d evaluations@,\
     default    %12d ns@,\
     controller %12d ns (%+.1f%%)@,\
     profile    %12d ns (%+.1f%%)@,\
     hand-best  %12d ns (%+.1f%%, %s)@,\
     searched   %12d ns (%+.1f%%, from %s)@,\
     %a@,\
     seed-stable %b; replay %s@]"
    r.workload r.base_runtime r.nthreads r.seed r.evaluations r.wall_default_ns
    r.wall_controller_ns (sp r.wall_controller_ns) r.wall_profile_ns (sp r.wall_profile_ns)
    r.wall_hand_best_ns (sp r.wall_hand_best_ns) r.hand_best_name r.wall_searched_ns
    (sp r.wall_searched_ns) r.searched_from Ctl.pp_params r.searched r.seed_stable
    (if not r.replay_checked then "unchecked" else if r.replay_ok then "ok" else "DIVERGED")

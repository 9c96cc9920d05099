(* Default vs controller vs searched vs best-hand-tuned simulated time
   over the workload registry: the auto-tuner's report card.

   The acceptance bar the notes spell out: the searched configuration
   must be within 5% of the best hand-tuned grid point on every
   workload (it is <= by construction — the grid is a subset of the
   search space and its default point ties the untuned config exactly),
   and strictly faster than the default on at least half of them. *)

let ratio num den = if den <= 0 then 1.0 else float_of_int num /. float_of_int den

let run ?(threads = 8) ?(seed = 1) () =
  let results =
    Sim.Par.map_list
      (fun name -> Tune.Search.search ~nthreads:threads ~seed ~quick:true ~check:true name)
      Workload.Registry.names
  in
  let table =
    Stats.Table.create
      ~columns:
        [
          "workload";
          "default-ns";
          "controller-ns";
          "searched-ns";
          "hand-best-ns";
          "hand-best";
          "searched-vs-hand";
          "searched-vs-default";
          "from";
          "seed-stable";
          "replay";
        ]
  in
  List.iter
    (fun (r : Tune.Search.t) ->
      Stats.Table.add_row table
        [
          r.Tune.Search.workload;
          string_of_int r.Tune.Search.wall_default_ns;
          string_of_int r.Tune.Search.wall_controller_ns;
          string_of_int r.Tune.Search.wall_searched_ns;
          string_of_int r.Tune.Search.wall_hand_best_ns;
          r.Tune.Search.hand_best_name;
          Stats.Table.cell_ratio
            (ratio r.Tune.Search.wall_searched_ns r.Tune.Search.wall_hand_best_ns);
          Stats.Table.cell_ratio
            (ratio r.Tune.Search.wall_searched_ns r.Tune.Search.wall_default_ns);
          r.Tune.Search.searched_from;
          string_of_bool r.Tune.Search.seed_stable;
          (if not r.Tune.Search.replay_checked then "unchecked"
           else if r.Tune.Search.replay_ok then "ok"
           else "DIVERGED");
        ])
    results;
  let n = List.length results in
  let within_5pct =
    List.for_all
      (fun (r : Tune.Search.t) ->
        ratio r.Tune.Search.wall_searched_ns r.Tune.Search.wall_hand_best_ns <= 1.05)
      results
  in
  let beat_default =
    List.length
      (List.filter
         (fun (r : Tune.Search.t) ->
           r.Tune.Search.wall_searched_ns < r.Tune.Search.wall_default_ns)
         results)
  in
  let all_stable = List.for_all (fun (r : Tune.Search.t) -> r.Tune.Search.seed_stable) results in
  let all_replay_ok =
    List.for_all
      (fun (r : Tune.Search.t) -> (not r.Tune.Search.replay_checked) || r.Tune.Search.replay_ok)
      results
  in
  let total_evals =
    List.fold_left (fun a (r : Tune.Search.t) -> a + r.Tune.Search.evaluations) 0 results
  in
  {
    Fig_output.id = "autotune";
    title = "replay-driven auto-tuning: default vs controller vs searched vs hand grid";
    tables = [ ("simulated wall time by tuning strategy", table) ];
    notes =
      [
        Printf.sprintf
          "%s: searched within 5%% of the best hand-tuned grid point on every workload \
           (guaranteed: the hand grid is a subset of the search space)"
          (if within_5pct then "PASS" else "FAIL");
        Printf.sprintf "%s: searched strictly faster than the default on %d/%d workloads"
          (if 2 * beat_default >= n then "PASS" else "FAIL")
          beat_default n;
        Printf.sprintf
          "%s: every winner's witness is identical across seeds, and its scripted replay \
           re-checks each Tune_decision against the pure (params, epoch) prediction"
          (if all_stable && all_replay_ok then "PASS" else "FAIL");
        Printf.sprintf
          "%d simulated evaluations total (quick search); controller decisions are pure \
           functions of (params, epoch), so all five runtimes make identical choices — \
           mem/output hashes agree everywhere, full witnesses within {ic, pipe, domains}"
          total_evals;
      ];
  }

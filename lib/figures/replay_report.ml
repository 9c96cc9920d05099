type row = {
  benchmark : string;
  runtime : string;
  events : int;
  log_bytes : int;
  bare_ms : float;
  record_ms : float;
  replay_ms : float;
  sim_delta_ns : int;  (** recorded wall_ns minus untracked wall_ns: must be 0 *)
  checked : int;
  ok : bool;
}

let cpu_ms f =
  let t0 = Sys.time () in
  let x = f () in
  (x, (Sys.time () -. t0) *. 1e3)

let measure_one ~threads ~seed rt name =
  let program = (Workload.Registry.find name).Workload.Registry.program in
  let bare, bare_ms =
    cpu_ms (fun () -> Runtime.Run.run rt ~seed ~nthreads:threads program)
  in
  let (log, rec_res), record_ms =
    cpu_ms (fun () -> Replay.Schedule.record rt ~seed ~nthreads:threads program)
  in
  let outcome, replay_ms = cpu_ms (fun () -> Replay.Replayer.replay log program) in
  {
    benchmark = name;
    runtime = Runtime.Run.name rt;
    events = Replay.Schedule.length log;
    log_bytes = String.length (Obs.Json.to_string (Replay.Schedule.to_json log));
    bare_ms;
    record_ms;
    replay_ms;
    sim_delta_ns = rec_res.Stats.Run_result.wall_ns - bare.Stats.Run_result.wall_ns;
    checked = outcome.Replay.Replayer.checked;
    ok = Replay.Replayer.ok outcome;
  }

let benchmarks = Workload.Registry.hardest_five

let run ?(threads = 8) ?(seed = 1) () =
  let rows =
    List.map (measure_one ~threads ~seed Runtime.Run.consequence_ic) benchmarks
    @ [ measure_one ~threads ~seed Runtime.Run.pthreads (List.hd benchmarks) ]
  in
  let table =
    Stats.Table.create
      ~columns:
        [
          "benchmark"; "runtime"; "events"; "log-KiB"; "bare-ms"; "record-ms"; "replay-ms";
          "sim-delta-ns"; "checked"; "replay";
        ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [
          r.benchmark;
          r.runtime;
          string_of_int r.events;
          Printf.sprintf "%.1f" (float_of_int r.log_bytes /. 1024.0);
          Printf.sprintf "%.1f" r.bare_ms;
          Printf.sprintf "%.1f" r.record_ms;
          Printf.sprintf "%.1f" r.replay_ms;
          string_of_int r.sim_delta_ns;
          string_of_int r.checked;
          (if r.ok then "ok" else "DIVERGED");
        ])
    rows;
  let all_ok = List.for_all (fun r -> r.ok) rows in
  let neutral = List.for_all (fun r -> r.sim_delta_ns = 0) rows in
  let total_events = List.fold_left (fun a r -> a + r.events) 0 rows in
  let replay_s = List.fold_left (fun a r -> a +. r.replay_ms) 0.0 rows /. 1e3 in
  let explore_note =
    let name = List.hd benchmarks in
    let program = (Workload.Registry.find name).Workload.Registry.program in
    let log, _ =
      Replay.Schedule.record Runtime.Run.consequence_ic ~seed ~nthreads:threads program
    in
    let rep = Replay.Explore.explore ~variants:4 log program in
    Printf.sprintf
      "explorer on %s: %d boundary perturbations, %d distinct timings, %d distinct \
       witnesses (%s)"
      name
      (List.length rep.Replay.Explore.variants)
      rep.Replay.Explore.distinct_timings rep.Replay.Explore.distinct_witnesses
      (if rep.Replay.Explore.deterministic then "deterministic" else "NONDETERMINISTIC")
  in
  {
    Fig_output.id = "replay";
    title = "schedule record/replay: log size, record overhead, replay throughput";
    tables = [ ("", table) ];
    notes =
      [
        (if all_ok then "every replay reproduced its recorded witnesses divergence-free"
         else "A REPLAY DIVERGED");
        (if neutral then
           "recording is simulation-neutral: recorded wall_ns identical to untracked runs"
         else "RECORDING PERTURBED SIMULATED TIME");
        Printf.sprintf "replay checked %d events in %.2f s CPU (%.0f events/s)" total_events
          replay_s
          (if replay_s > 0.0 then float_of_int total_events /. replay_s else 0.0);
        explore_note;
      ];
  }

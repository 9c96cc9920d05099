(* Transactional KV service report: throughput and request-latency SLO
   quantiles for the six server-shaped traffic mixes.

   Each shape runs once per seed under consequence-ic; the table
   reports completed requests (commits + snapshot reads), abort counts,
   throughput against the modelled clock, and the p50/p99/p999 of the
   kv:req_ns request-latency histogram (submission to completion,
   retries included — so the tail quantiles surface the abort/retry
   convoys that hot-key contention produces).

   The notes carry the determinism claims: the witness and the abort
   counts must be byte-identical across seeds — latencies move with the
   seed, outcomes never do. *)

let runtime = Runtime.Run.consequence_ic
let seeds = [ 1; 7 ]

type sample = {
  s_shape : string;
  s_seed : int;
  s_wall : int;
  s_completed : int;
  s_commits : int;
  s_aborts : int;
  s_snapshots : int;
  s_p50 : float;
  s_p99 : float;
  s_p999 : float;
  s_witness : string;
}

let measure ?(threads = 4) () =
  let shapes = Workload.Registry.kv_set in
  let jobs = List.concat_map (fun sh -> List.map (fun seed -> (sh, seed)) seeds) shapes in
  Sim.Par.map_list
    (fun (shape, seed) ->
      let program = (Workload.Registry.find shape).Workload.Registry.program in
      let r = Runtime.Run.run runtime ~seed ~nthreads:threads program in
      let m = r.Stats.Run_result.metrics in
      let commits = Obs.Metrics.counter_value m "kv:commits" in
      let snapshots = Obs.Metrics.counter_value m "kv:snapshots" in
      let q p =
        match Obs.Metrics.find_hist m "kv:req_ns" with
        | Some h -> Obs.Metrics.percentile h p
        | None -> nan
      in
      {
        s_shape = shape;
        s_seed = seed;
        s_wall = r.Stats.Run_result.wall_ns;
        s_completed = commits + snapshots;
        s_commits = commits;
        s_aborts = Obs.Metrics.counter_value m "kv:aborts";
        s_snapshots = snapshots;
        s_p50 = q 0.50;
        s_p99 = q 0.99;
        s_p999 = q 0.999;
        s_witness = Stats.Run_result.deterministic_witness r;
      })
    jobs

let throughput s =
  if s.s_wall <= 0 then 0.0
  else float_of_int s.s_completed /. float_of_int s.s_wall *. 1e9

let run ?threads () =
  let samples = measure ?threads () in
  let table =
    Stats.Table.create
      ~columns:
        [
          "shape";
          "seed";
          "wall-ns";
          "req";
          "commits";
          "aborts";
          "snapshots";
          "req/s";
          "p50-ns";
          "p99-ns";
          "p999-ns";
        ]
  in
  List.iter
    (fun s ->
      Stats.Table.add_row table
        [
          s.s_shape;
          string_of_int s.s_seed;
          string_of_int s.s_wall;
          string_of_int s.s_completed;
          string_of_int s.s_commits;
          string_of_int s.s_aborts;
          string_of_int s.s_snapshots;
          Printf.sprintf "%.0f" (throughput s);
          Printf.sprintf "%.0f" s.s_p50;
          Printf.sprintf "%.0f" s.s_p99;
          Printf.sprintf "%.0f" s.s_p999;
        ])
    samples;
  (* Per shape: witnesses and abort counts across seeds. *)
  let shapes = Workload.Registry.kv_set in
  let of_shape sh = List.filter (fun s -> s.s_shape = sh) samples in
  let witness_stable sh =
    List.length (List.sort_uniq compare (List.map (fun s -> s.s_witness) (of_shape sh))) <= 1
  in
  let aborts_stable sh =
    List.length (List.sort_uniq compare (List.map (fun s -> s.s_aborts) (of_shape sh))) <= 1
  in
  let all_stable = List.for_all witness_stable shapes && List.for_all aborts_stable shapes in
  let hot_tail =
    match of_shape "kv_hot" with
    | s :: _ when s.s_p50 > 0.0 -> s.s_p999 /. s.s_p50
    | _ -> 0.0
  in
  {
    Fig_output.id = "kv";
    title = "transactional KV service: throughput and latency SLO quantiles per traffic shape";
    tables = [ ("", table) ];
    notes =
      [
        Printf.sprintf "runtime %s: %d shapes x %d seeds" (Runtime.Run.name runtime)
          (List.length shapes) (List.length seeds);
        (if all_stable then
           "witnesses and abort counts byte-identical across seeds for every shape"
         else "WITNESS OR ABORT-COUNT DIVERGENCE across seeds");
        Printf.sprintf "hot-key p999/p50 latency ratio %.1fx (abort/retry convoys stretch the tail)"
          hot_tail;
      ];
  }

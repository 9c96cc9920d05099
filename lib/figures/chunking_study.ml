type row = {
  variant : string;
  wall_ns : int;
  commits : int;
  forced : int;
}

let chunk_sizes = [ 10_000; 50_000; 200_000 ]

(* Long compute regions with occasional synchronization: the case where
   sync-op-only commits amortize best. *)
let program =
  Api.make ~name:"chunking-study" ~heap_pages:64 ~page_size:256 (fun ~nthreads ops ->
      Workload.Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for phase = 1 to 4 do
            w.Api.work 150_000;
            Workload.Wl_util.fill_region w ~addr:(4096 + (1024 * i)) ~bytes:512
              ~tag:(i + phase);
            Workload.Wl_util.locked_add w ~lock:0 ~addr:8 phase
          done))

let measure ?(threads = 8) ?(seed = 1) () =
  let base = Runtime.Config.consequence_ic in
  let variants =
    ("sync-ops-only", base)
    :: List.map
         (fun k -> (Printf.sprintf "chunk-%d" k, Runtime.Config.with_chunk_limit base k))
         chunk_sizes
  in
  Sim.Par.map_list
    (fun (variant, cfg) ->
      let r = Runtime.Det_rt.run cfg ~seed ~nthreads:threads program in
      let forced = Obs.Metrics.counter_value r.Stats.Run_result.metrics "op:forced-commit" in
      { variant; wall_ns = r.Stats.Run_result.wall_ns; commits = r.Stats.Run_result.commits; forced })
    variants

let run ?threads ?seed () =
  let rows = measure ?threads ?seed () in
  let table =
    Stats.Table.create ~columns:[ "commit placement"; "wall"; "page commits"; "forced commits" ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row table
        [
          row.variant;
          Printf.sprintf "%.2f ms" (float_of_int row.wall_ns /. 1e6);
          string_of_int row.commits;
          string_of_int row.forced;
        ])
    rows;
  let sync_only = List.find (fun r -> r.variant = "sync-ops-only") rows in
  let worst =
    List.fold_left (fun acc r -> if r.wall_ns > acc.wall_ns then r else acc) sync_only rows
  in
  {
    Fig_output.id = "chunking";
    title = "commit placement: fixed-size chunks (CoreDet/Calvin) vs sync-op boundaries (section 2.4)";
    tables = [ ("", table) ];
    notes =
      [
        Printf.sprintf
          "sync-op-only: %.2f ms, 0 forced commits; worst fixed chunking (%s): %.2f ms with %d forced commit+updates — committing only at synchronization operations amortizes commit cost (the design DThreads introduced and Consequence builds on)"
          (float_of_int sync_only.wall_ns /. 1e6)
          worst.variant
          (float_of_int worst.wall_ns /. 1e6)
          worst.forced;
      ];
  }

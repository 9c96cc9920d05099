type row = {
  benchmark : string;
  speedups : (string * float) list;
}

(* Display name and the config transformer that disables it. *)
let optimizations =
  [
    ("coarsening", Runtime.Config.without_coarsening);
    ("adaptive-overflow", Runtime.Config.without_adaptive_overflow);
    ("userspace-reads", Runtime.Config.without_userspace_reads);
    ("fast-forward", Runtime.Config.without_fast_forward);
    ("parallel-barrier", Runtime.Config.without_parallel_barrier);
    ("thread-pool", Runtime.Config.without_thread_pool);
  ]

let measure ?(threads = 8) ?(seed = 1) () =
  (* One job per (benchmark, config): the baseline config first, then
     each optimization disabled in turn. *)
  let cfgs =
    Runtime.Config.consequence_ic
    :: List.map (fun (_, disable) -> disable Runtime.Config.consequence_ic) optimizations
  in
  let ncfg = List.length cfgs in
  let names = Workload.Registry.fig13_set in
  let jobs = List.concat_map (fun name -> List.map (fun cfg -> (name, cfg)) cfgs) names in
  let walls =
    Array.of_list
      (Sim.Par.map_list
         (fun (name, cfg) ->
           let program = (Workload.Registry.find name).Workload.Registry.program in
           (Runtime.Det_rt.run cfg ~seed ~nthreads:threads program).Stats.Run_result.wall_ns)
         jobs)
  in
  List.mapi
    (fun k name ->
      let base_wall = walls.(k * ncfg) in
      let speedups =
        List.mapi
          (fun j (opt_name, _) ->
            (opt_name, float_of_int walls.((k * ncfg) + 1 + j) /. float_of_int base_wall))
          optimizations
      in
      { benchmark = name; speedups })
    names

let run ?threads ?seed () =
  let rows = measure ?threads ?seed () in
  let opt_names = List.map fst optimizations in
  let table = Stats.Table.create ~columns:("benchmark" :: opt_names) in
  List.iter
    (fun row ->
      Stats.Table.add_row table
        (row.benchmark
        :: List.map (fun n -> Stats.Table.cell_ratio (List.assoc n row.speedups)) opt_names))
    rows;
  let best_for opt =
    List.fold_left
      (fun (bn, bv) row ->
        let v = List.assoc opt row.speedups in
        if v > bv then (row.benchmark, v) else (bn, bv))
      ("-", 0.0) rows
  in
  let cb, cv = best_for "coarsening" in
  let pb, pv = best_for "parallel-barrier" in
  let uv = List.fold_left (fun acc row -> max acc (List.assoc "userspace-reads" row.speedups)) 0.0 rows in
  {
    Fig_output.id = "fig13";
    title = "speedup from each optimization (Consequence-IC with vs without), 8 threads";
    tables = [ ("", table) ];
    notes =
      [
        Printf.sprintf "largest coarsening win: %s %.2fx (paper: ferret, reverse_index)" cb cv;
        Printf.sprintf "largest parallel-barrier win: %s %.2fx (paper: ocean_cp/lu_ncb/canneal/lu_cb)" pb pv;
        Printf.sprintf "largest user-space-read win: %.2fx (paper: contributes very little)" uv;
      ];
  }

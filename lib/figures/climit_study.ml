type row = {
  limit : int option;
  spin_wall_ns : int option;
  forced_commits : int;
  compute_wall_ns : int;
}

let limits = [ None; Some 5_000; Some 20_000; Some 100_000; Some 500_000 ]

(* A thread spins on a flag that a peer sets without synchronization —
   the paper's T0/T1 example from section 2.7. *)
let flag_spin =
  Api.make ~name:"climit-flag-spin" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let setter =
        ops.Api.spawn ~name:"setter" (fun w ->
            w.Api.work 30_000;
            w.Api.write_int ~addr:8 1;
            w.Api.work 300_000)
      in
      let spinner =
        ops.Api.spawn ~name:"spinner" (fun w ->
            while w.Api.read_int ~addr:8 = 0 do
              w.Api.work 1_000
            done)
      in
      ops.Api.join setter;
      ops.Api.join spinner)

(* A compute-bound program that gains nothing from forced commits. *)
let compute_bound =
  Api.make ~name:"climit-compute" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      Workload.Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          w.Api.work 400_000;
          w.Api.write_int ~addr:(8 * i) i))

let forced_commit_count r = Obs.Metrics.counter_value r.Stats.Run_result.metrics "op:forced-commit"

let measure ?(seed = 1) () =
  Sim.Par.map_list
    (fun limit ->
      let cfg =
        match limit with
        | None -> Runtime.Config.consequence_ic
        | Some n -> Runtime.Config.with_chunk_limit Runtime.Config.consequence_ic n
      in
      (* A livelocked spin exhausts the event budget; bound it tightly so
         the probe is fast. *)
      let spin =
        match Runtime.Det_rt.run cfg ~seed ~nthreads:2 flag_spin with
        | r -> Some r
        | exception Sim.Engine.Stuck _ -> None
      in
      let compute = Runtime.Det_rt.run cfg ~seed ~nthreads:4 compute_bound in
      {
        limit;
        spin_wall_ns = Option.map (fun r -> r.Stats.Run_result.wall_ns) spin;
        forced_commits =
          (match spin with Some r -> forced_commit_count r | None -> 0);
        compute_wall_ns = compute.Stats.Run_result.wall_ns;
      })
    limits

let run ?seed () =
  let rows = measure ?seed () in
  let table =
    Stats.Table.create
      ~columns:[ "chunk-limit"; "flag-spin wall"; "forced commits"; "compute-bound wall" ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row table
        [
          (match row.limit with None -> "disabled" | Some n -> string_of_int n);
          (match row.spin_wall_ns with
          | None -> "LIVELOCK"
          | Some ns -> Printf.sprintf "%.2f ms" (float_of_int ns /. 1e6));
          string_of_int row.forced_commits;
          Printf.sprintf "%.2f ms" (float_of_int row.compute_wall_ns /. 1e6);
        ])
    rows;
  let base_compute =
    (List.find (fun r -> r.limit = None) rows).compute_wall_ns
  in
  let worst_overhead =
    List.fold_left
      (fun acc r -> max acc (float_of_int r.compute_wall_ns /. float_of_int base_compute))
      1.0 rows
  in
  {
    Fig_output.id = "climit";
    title = "ad-hoc synchronization support (section 2.7): per-chunk instruction limits";
    tables = [ ("", table) ];
    notes =
      [
        "without a limit the spin loop livelocks (detected via the event budget), exactly as section 2.7 describes";
        Printf.sprintf
          "tighter limits observe the flag sooner but force more commits; worst compute-bound overhead across limits: %.2fx (paper: some programs needed billion-instruction limits to avoid slowdown)"
          worst_overhead;
      ];
  }

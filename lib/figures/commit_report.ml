(* Commit-path scaling: serial vs pipelined sharded commit on the
   commit-heavy stressor, 8 to 256 threads.

   The claim under test is the parallel-commit design point: with the
   bulk install charged off the token hold (and sharded installs costed
   as their longest shard), commit cost per committed page stays flat as
   threads scale, while the serial path's token hold turns commits into
   a convoy.  Coarsening is disabled in both configurations so every
   round produces one regular commit (coalescing would fold rounds
   together and make the per-page series measure chunking policy
   instead of the commit path). *)

let threads_sweep = [ 8; 16; 32; 64; 128; 256 ]

let serial_cfg = Runtime.Config.without_coarsening Runtime.Config.consequence_ic

let pipe_cfg = Runtime.Config.with_pipelined_commit serial_cfg

type sample = {
  s_cfg : string;
  s_threads : int;
  s_wall : int;
  s_pages : int;
  s_commit_ns : int;  (* Bd.Commit total: seal + install + merge + drain *)
  s_determ_ns : int;
  s_witness : string;
}

let measure ?(threads = threads_sweep) ?(seed = 1) () =
  let program = Workload.Commit_heavy.make () in
  let jobs =
    List.concat_map (fun cfg -> List.map (fun t -> (cfg, t)) threads) [ serial_cfg; pipe_cfg ]
  in
  Sim.Par.map_list
    (fun (cfg, t) ->
      let r = Runtime.Run.run (Runtime.Run.Det cfg) ~seed ~nthreads:t program in
      let bd = Stats.Run_result.aggregate_breakdown r in
      {
        s_cfg = cfg.Runtime.Config.name;
        s_threads = t;
        s_wall = r.Stats.Run_result.wall_ns;
        s_pages = r.Stats.Run_result.pages_committed;
        s_commit_ns = Stats.Breakdown.get bd Stats.Breakdown.Commit;
        s_determ_ns = Stats.Breakdown.get bd Stats.Breakdown.Determ_wait;
        s_witness =
          String.concat "|"
            [
              r.Stats.Run_result.mem_hash;
              r.Stats.Run_result.sync_order_hash;
              r.Stats.Run_result.output_hash;
            ];
      })
    jobs

let per_page num den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den

let run ?threads ?seed () =
  let samples = measure ?threads ?seed () in
  let table =
    Stats.Table.create
      ~columns:
        [
          "config";
          "threads";
          "wall-ns";
          "pages-committed";
          "commit-ns/page";
          "wall-ns/page";
          "determ-wait-ns";
        ]
  in
  List.iter
    (fun s ->
      Stats.Table.add_row table
        [
          s.s_cfg;
          string_of_int s.s_threads;
          string_of_int s.s_wall;
          string_of_int s.s_pages;
          Printf.sprintf "%.1f" (per_page s.s_commit_ns s.s_pages);
          Printf.sprintf "%.1f" (per_page s.s_wall s.s_pages);
          string_of_int s.s_determ_ns;
        ])
    samples;
  let of_cfg name = List.filter (fun s -> s.s_cfg = name) samples in
  let pipe = of_cfg pipe_cfg.Runtime.Config.name in
  let serial = of_cfg serial_cfg.Runtime.Config.name in
  (* Flatness of the pipelined per-page commit cost across the sweep:
     max deviation from the mean, in percent. *)
  let flatness rows =
    let vals = List.map (fun s -> per_page s.s_commit_ns s.s_pages) rows in
    match vals with
    | [] -> 0.0
    | _ ->
        let mean = List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals) in
        if mean = 0.0 then 0.0
        else
          List.fold_left (fun acc v -> max acc (abs_float (v -. mean) /. mean *. 100.0)) 0.0 vals
  in
  (* Witnesses must match pairwise between the two configs at every
     thread count: pipelining and sharding relocate cost, never data. *)
  let witness_ok =
    List.for_all
      (fun s ->
        match List.find_opt (fun p -> p.s_threads = s.s_threads) pipe with
        | Some p -> p.s_witness = s.s_witness
        | None -> true)
      serial
  in
  let speedup_at t =
    match
      ( List.find_opt (fun s -> s.s_threads = t) serial,
        List.find_opt (fun s -> s.s_threads = t) pipe )
    with
    | Some s, Some p when p.s_wall > 0 -> float_of_int s.s_wall /. float_of_int p.s_wall
    | _ -> 0.0
  in
  let max_t = List.fold_left max 0 (List.map (fun s -> s.s_threads) samples) in
  {
    Fig_output.id = "commit";
    title = "parallel sharded commit: cost per committed page vs thread count";
    tables = [ ("", table) ];
    notes =
      [
        Printf.sprintf "pipelined commit-ns/page flat within %.1f%% of mean across sweep (serial: %.1f%%)"
          (flatness pipe) (flatness serial);
        Printf.sprintf "wall-clock speedup pipelined vs serial at %d threads: %.2fx" max_t
          (speedup_at max_t);
        (if witness_ok then "witnesses byte-identical serial vs pipelined at every thread count"
         else "WITNESS DIVERGENCE between serial and pipelined runs");
      ];
  }

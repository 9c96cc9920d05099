type row = {
  benchmark : string;
  conflicts : int;  (** conflict runs under [audited_runtime], first seed *)
  racy : int;
  sync_ordered : int;
  racy_bytes : int;
  report_stable : bool;  (** report byte-identical across the seed sweep *)
  pthreads_variants : int;  (** distinct pthreads (conflicts, racy) pairs *)
  pthreads_racy_max : int;
}

let audited_runtime = Runtime.Run.consequence_ic

let seeds = [ 1; 2; 42 ]

let measure ?(threads = 4) () =
  (* One job per (benchmark, runtime); each job audits its own seed
     sweep.  The deterministic column's reports must be byte-identical
     across the sweep; pthreads is free to wander. *)
  let jobs =
    List.concat_map
      (fun entry -> [ (entry, audited_runtime); (entry, Runtime.Run.pthreads) ])
      Workload.Registry.all
  in
  let sweeps =
    Array.of_list
      (Sim.Par.map_list
         (fun (entry, rt) ->
           List.map
             (fun seed ->
               fst (Race.Audit.run ~seed ~nthreads:threads rt entry.Workload.Registry.program))
             seeds)
         jobs)
  in
  List.mapi
    (fun k entry ->
      let det = sweeps.(2 * k) and pth = sweeps.((2 * k) + 1) in
      let r = List.hd det in
      {
        benchmark = entry.Workload.Registry.program.Api.name;
        conflicts = r.Race.Report.conflicts;
        racy = r.Race.Report.racy;
        sync_ordered = r.Race.Report.sync_ordered;
        racy_bytes = r.Race.Report.racy_bytes;
        report_stable =
          List.length (List.sort_uniq compare (List.map Race.Report.to_string det)) = 1;
        pthreads_variants =
          List.length
            (List.sort_uniq compare
               (List.map (fun p -> (p.Race.Report.conflicts, p.Race.Report.racy)) pth));
        pthreads_racy_max =
          List.fold_left (fun acc p -> max acc p.Race.Report.racy) 0 pth;
      })
    Workload.Registry.all

let run ?threads () =
  let rows = measure ?threads () in
  let table =
    Stats.Table.create
      ~columns:
        [
          "benchmark"; "conflicts"; "racy"; "sync-ordered"; "racy-bytes"; "report";
          "pthreads-variants"; "pthreads-racy-max";
        ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row table
        [
          row.benchmark;
          string_of_int row.conflicts;
          string_of_int row.racy;
          string_of_int row.sync_ordered;
          string_of_int row.racy_bytes;
          (if row.report_stable then "stable" else "DIVERGED");
          string_of_int row.pthreads_variants;
          string_of_int row.pthreads_racy_max;
        ])
    rows;
  let n = List.length rows in
  let racy_benchmarks = List.filter (fun r -> r.racy > 0) rows in
  let all_stable = List.for_all (fun r -> r.report_stable) rows in
  let pthreads_moving = List.length (List.filter (fun r -> r.pthreads_variants > 1) rows) in
  {
    Fig_output.id = "races";
    title =
      Printf.sprintf "race audit under %s: merge conflicts classified racy vs sync-ordered"
        (Runtime.Run.name audited_runtime);
    tables = [ ("", table) ];
    notes =
      [
        (if all_stable then
           "every race report is byte-identical across seeds under the deterministic runtime"
         else "RACE REPORT DIVERGED ACROSS SEEDS");
        Printf.sprintf "%d of %d benchmarks carry genuine data races the merge silently resolves"
          (List.length racy_benchmarks) n;
        Printf.sprintf
          "pthreads conflict counts moved with the seed on %d of %d benchmarks (timing-dependent)"
          pthreads_moving n;
      ];
  }

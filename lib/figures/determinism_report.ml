type row = {
  benchmark : string;
  stable : (string * bool) list;
  pthreads_variants : int;
}

let det_runtimes =
  [ Runtime.Run.dthreads; Runtime.Run.dwc; Runtime.Run.consequence_rr; Runtime.Run.consequence_ic ]

let witness rt ~seed ~threads program =
  Stats.Run_result.deterministic_witness (Runtime.Run.run rt ~seed ~nthreads:threads program)

let measure ?(threads = 4) ?(seeds = [ 1; 2; 42 ]) () =
  (* One job per (benchmark, runtime); pthreads rides along as the last
     runtime of each benchmark.  Each job runs its own seed sweep. *)
  let rts = det_runtimes @ [ Runtime.Run.pthreads ] in
  let nrts = List.length rts in
  let jobs =
    List.concat_map
      (fun entry -> List.map (fun rt -> (entry, rt)) rts)
      Workload.Registry.all
  in
  let sweeps =
    Array.of_list
      (Sim.Par.map_list
         (fun (entry, rt) ->
           let program = entry.Workload.Registry.program in
           List.map (fun seed -> witness rt ~seed ~threads program) seeds)
         jobs)
  in
  List.mapi
    (fun k entry ->
      let program = entry.Workload.Registry.program in
      let stable =
        List.mapi
          (fun j rt ->
            let ws = sweeps.((k * nrts) + j) in
            (Runtime.Run.name rt, List.length (List.sort_uniq compare ws) = 1))
          det_runtimes
      in
      let pthreads_variants =
        sweeps.((k * nrts) + nrts - 1) |> List.sort_uniq compare |> List.length
      in
      { benchmark = program.Api.name; stable; pthreads_variants })
    Workload.Registry.all

let run ?threads () =
  let rows = measure ?threads () in
  let rt_names = List.map Runtime.Run.name det_runtimes in
  let table =
    Stats.Table.create ~columns:(("benchmark" :: rt_names) @ [ "pthreads-variants" ])
  in
  List.iter
    (fun row ->
      Stats.Table.add_row table
        ((row.benchmark
         :: List.map (fun n -> if List.assoc n row.stable then "stable" else "DIVERGED") rt_names)
        @ [ string_of_int row.pthreads_variants ]))
    rows;
  let all_stable =
    List.for_all (fun row -> List.for_all snd row.stable) rows
  in
  let divergent_pthreads = List.length (List.filter (fun r -> r.pthreads_variants > 1) rows) in
  {
    Fig_output.id = "determinism";
    title = "witness stability across perturbed executions (seeds)";
    tables = [ ("", table) ];
    notes =
      [
        (if all_stable then
           "all deterministic libraries produced identical witnesses on every benchmark"
         else "DETERMINISM VIOLATION DETECTED");
        Printf.sprintf
          "pthreads produced multiple distinct outcomes on %d of %d benchmarks (racy/timing-dependent programs)"
          divergent_pthreads (List.length rows);
      ];
  }

type row = {
  ppm : int;
  programs : int;
  divergent : int;
}

let noise_levels = [ 0; 100; 10_000; 100_000 ]

let measure ?(programs = 12) ?(threads = 6) () =
  (* One job per (noise level, synthetic program); counts are summed back
     per level in input order. *)
  let jobs =
    List.concat_map
      (fun ppm -> List.init programs (fun k -> (ppm, k + 1)))
      noise_levels
  in
  let diverged =
    Sim.Par.map_list
      (fun (ppm, prog_seed) ->
        let cfg =
          if ppm = 0 then Runtime.Config.consequence_ic
          else Runtime.Config.with_counter_jitter Runtime.Config.consequence_ic ~ppm
        in
        let program = Workload.Synthetic.make ~seed:prog_seed () in
        let witness seed =
          Stats.Run_result.deterministic_witness
            (Runtime.Det_rt.run cfg ~seed ~nthreads:threads program)
        in
        let ws = List.map witness [ 1; 31; 77 ] in
        List.length (List.sort_uniq compare ws) > 1)
      jobs
  in
  let diverged = Array.of_list diverged in
  List.mapi
    (fun i ppm ->
      let divergent = ref 0 in
      for k = 0 to programs - 1 do
        if diverged.((i * programs) + k) then incr divergent
      done;
      { ppm; programs; divergent = !divergent })
    noise_levels

let run ?threads () =
  let rows = measure ?threads () in
  let table =
    Stats.Table.create ~columns:[ "counter-noise (ppm)"; "programs"; "divergent witnesses" ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row table
        [ string_of_int row.ppm; string_of_int row.programs; string_of_int row.divergent ])
    rows;
  let exact = List.find (fun r -> r.ppm = 0) rows in
  {
    Fig_output.id = "soundness";
    title = "logical-clock soundness vs performance-counter noise (section 2.1 / [30])";
    tables = [ ("", table) ];
    notes =
      [
        Printf.sprintf
          "with exact counters: %d/%d divergent (the paper's claim: the clock is sound given deterministic counters)"
          exact.divergent exact.programs;
        "with noisy counters the GMIC order dissolves and determinism degrades — why the paper measures counter trustworthiness [30] and offers compiler-based counting as the fallback";
      ];
  }

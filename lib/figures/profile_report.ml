module St = Obs.Thread_state

let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* The states worth a column each; the rest are folded into "other". *)
let headline_states =
  [ St.Run; St.Token_wait; St.Lock_wait; St.Barrier_wait; St.Commit; St.Fault ]

let whatif_benchmarks = [ "ferret"; "kmeans" ]

let run ?(threads = 8) ?(seed = 1) () =
  let reports =
    List.map
      (fun name ->
        let program = (Workload.Registry.find name).Workload.Registry.program in
        let whatif = List.mem name whatif_benchmarks in
        (name, Prof.Report.run ~seed ~nthreads:threads ~whatif program))
      Workload.Registry.names
  in
  (* Table 1: per-benchmark thread-state shares (percent of total
     thread-time) plus the conservation verdict. *)
  let shares =
    Stats.Table.create
      ~columns:
        ([ "benchmark"; "wall-ns" ]
        @ List.map (fun st -> St.name st ^ "-%") headline_states
        @ [ "other-%"; "conserved" ])
  in
  List.iter
    (fun (name, (r : Prof.Report.t)) ->
      let p = r.Prof.Report.profile in
      (* Shares come from the one shared accessor (the self-tuning
         controller reads the same numbers), never re-derived here. *)
      let share st = 100.0 *. Prof.Profile.state_share p st in
      let headline_pct = List.fold_left (fun a st -> a +. share st) 0.0 headline_states in
      Stats.Table.add_row shares
        ([ name; string_of_int p.Prof.Profile.wall_ns ]
        @ List.map (fun st -> Printf.sprintf "%.1f" (share st)) headline_states
        @ [
            Printf.sprintf "%.1f" (Float.max 0.0 (100.0 -. headline_pct));
            (if Prof.Report.conservation_ok r then "ok" else "VIOLATED");
          ]))
    reports;
  (* Table 2: critical-path composition. *)
  let cpath =
    Stats.Table.create
      ~columns:
        ([ "benchmark"; "path-%"; "segments"; "bridged" ]
        @ List.map (fun st -> St.name st ^ "-%") headline_states
        @ [ "unbridged-wait-%" ])
  in
  List.iter
    (fun (name, (r : Prof.Report.t)) ->
      let c = r.Prof.Report.cpath in
      Stats.Table.add_row cpath
        ([
           name;
           Printf.sprintf "%.1f" (pct c.Prof.Critical_path.path_ns c.Prof.Critical_path.wall_ns);
           string_of_int c.Prof.Critical_path.segments;
           string_of_int c.Prof.Critical_path.bridged;
         ]
        @ List.map
            (fun st ->
              Printf.sprintf "%.1f"
                (pct c.Prof.Critical_path.by_state.(St.index st) c.Prof.Critical_path.path_ns))
            headline_states
        @ [
            Printf.sprintf "%.1f"
              (pct c.Prof.Critical_path.unbridged_wait_ns c.Prof.Critical_path.path_ns);
          ]))
    reports;
  (* Table 3: measured what-if speedups for the subset that ran them. *)
  let whatif_rows =
    List.filter_map
      (fun (name, (r : Prof.Report.t)) ->
        Option.map (fun w -> (name, w)) r.Prof.Report.whatif)
      reports
  in
  let whatif_tbl =
    Stats.Table.create
      ~columns:
        ([ "benchmark" ]
        @ List.map (fun (s, _, _) -> s) Prof.Whatif.scenarios
        @ [ "diverged" ])
  in
  List.iter
    (fun (name, (w : Prof.Whatif.t)) ->
      let cell s =
        match List.find_opt (fun r -> r.Prof.Whatif.scenario = s) w.Prof.Whatif.rows with
        | Some r -> Printf.sprintf "%.3fx" r.Prof.Whatif.speedup
        | None -> "-"
      in
      Stats.Table.add_row whatif_tbl
        ([ name ]
        @ List.map (fun (s, _, _) -> cell s) Prof.Whatif.scenarios
        @ [
            string_of_int
              (List.length (List.filter (fun r -> r.Prof.Whatif.diverged) w.Prof.Whatif.rows));
          ]))
    whatif_rows;
  let all_conserved = List.for_all (fun (_, r) -> Prof.Report.conservation_ok r) reports in
  let n_truncated =
    List.length
      (List.filter (fun (_, r) -> r.Prof.Report.cpath.Prof.Critical_path.truncated) reports)
  in
  let dominant =
    (* The benchmark with the largest token-wait share: the worked
       example the docs walk through. *)
    List.fold_left
      (fun acc (name, (r : Prof.Report.t)) ->
        let s = 100.0 *. Prof.Profile.state_share r.Prof.Report.profile St.Token_wait in
        match acc with Some (_, s0) when s0 >= s -> acc | _ -> Some (name, s))
      None reports
  in
  {
    Fig_output.id = "profile";
    title =
      "determinism profiler: thread-state attribution, critical path, what-if projection";
    tables =
      [
        ("thread-state shares (% of total thread-time)", shares);
        ("critical-path composition (% of path)", cpath);
        ("what-if measured speedups (schedule replayed under perturbed costs)", whatif_tbl);
      ];
    notes =
      [
        (if all_conserved then
           "conservation holds on every benchmark: states tile each thread's lifetime \
            exactly"
         else "A CONSERVATION VIOLATION WAS DETECTED");
        (if n_truncated = 0 then "no critical-path walk hit its safety cap"
         else Printf.sprintf "%d critical-path walk(s) truncated at the safety cap" n_truncated);
        (match dominant with
        | Some (name, s) ->
            Printf.sprintf "largest token-wait share: %s at %.1f%% of thread-time" name s
        | None -> "no benchmarks profiled");
      ];
  }

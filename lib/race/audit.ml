let run ?seed ?nthreads rt (program : Api.t) =
  let det = Detector.create () in
  let result = Runtime.Run.run rt ?seed ?nthreads ~observer:(Detector.observer det) program in
  let report =
    Report.of_detector ~workload:program.Api.name ~runtime:(Runtime.Run.name rt)
      ~nthreads:result.Stats.Run_result.nthreads det
  in
  (report, result)

let stable_across_seeds ?nthreads ~seeds rt program =
  let renderings =
    List.map (fun seed -> Report.to_string (fst (run ~seed ?nthreads rt program))) seeds
  in
  match renderings with [] -> true | first :: rest -> List.for_all (String.equal first) rest

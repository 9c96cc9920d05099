module St = Obs.Thread_state

type t = {
  runtime_name : string;
  result : Stats.Run_result.t;
  profile : Profile.t;
  cpath : Critical_path.t;
  whatif : Whatif.t option;
}

let run ?(runtime = Runtime.Run.consequence_ic) ?(seed = 1) ?nthreads ?(whatif = false) ?tracer
    program =
  let c = Profile.create () in
  (* A tracer of our own keeps only the intervals the critical path
     reads, not spans and instants that nobody would read. *)
  let tracer, recorded =
    match tracer with
    | Some t -> (t, Obs.Tracer.sink t)
    | None ->
        let t = Obs.Tracer.create () in
        (t, { Obs.Sink.null with Obs.Sink.state = (Obs.Tracer.sink t).Obs.Sink.state })
  in
  let result =
    Runtime.Run.run runtime ~seed ?nthreads ~observer:(Profile.observer c)
      ~obs:(Obs.Sink.tee (Profile.sink c) recorded)
      program
  in
  let profile = Profile.finish c ~wall_ns:result.Stats.Run_result.wall_ns in
  let cpath = Critical_path.compute profile tracer in
  let whatif =
    if whatif then
      Some (Whatif.run ~runtime ~seed ?nthreads program)
    else None
  in
  { runtime_name = Runtime.Run.name runtime; result; profile; cpath; whatif }

let conservation_ok t = Profile.conservation_ok t.profile

let to_json t =
  let base =
    [
      ("runtime", Obs.Json.String t.runtime_name);
      ("wall_ns", Obs.Json.Int t.result.Stats.Run_result.wall_ns);
      ("conserved", Obs.Json.Bool (conservation_ok t));
      ("profile", Profile.to_json t.profile);
      ("critical_path", Critical_path.to_json t.cpath);
    ]
  in
  let base =
    match t.whatif with
    | None -> base
    | Some w -> base @ [ ("whatif", Whatif.to_json w) ]
  in
  Obs.Json.Obj base

(* One quantile line per state that actually occurred. *)
let pp_quantiles fmt (p : Profile.t) =
  let any = ref false in
  List.iter
    (fun st ->
      match Obs.Metrics.find_hist p.Profile.hists ("state:" ^ St.name st) with
      | None -> ()
      | Some h ->
          if not !any then begin
            any := true;
            Format.fprintf fmt "interval lengths (ns):@,";
            Format.fprintf fmt "  %-14s %8s %12s %12s %12s@," "state" "count" "p50" "p99"
              "p999"
          end;
          Format.fprintf fmt "  %-14s %8d %12.0f %12.0f %12.0f@," (St.name st)
            h.Obs.Metrics.count
            (Obs.Metrics.percentile h 0.5)
            (Obs.Metrics.percentile h 0.99)
            (Obs.Metrics.percentile h 0.999))
    St.all

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "=== determinism profile: %s, %d threads, wall %dns ===@,"
    t.runtime_name
    (List.length t.result.Stats.Run_result.per_thread)
    t.result.Stats.Run_result.wall_ns;
  Format.fprintf fmt "conservation: %s@,"
    (if conservation_ok t then "ok (states tile every lifetime exactly)"
     else "VIOLATED");
  Profile.pp fmt t.profile;
  Format.fprintf fmt "@,";
  pp_quantiles fmt t.profile;
  Format.fprintf fmt "@,";
  Critical_path.pp fmt t.cpath;
  (match t.whatif with
  | None -> ()
  | Some w ->
      Format.fprintf fmt "@,";
      Whatif.pp fmt w);
  Format.fprintf fmt "@]"

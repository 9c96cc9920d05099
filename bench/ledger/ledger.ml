(* The two-clock performance ledger.

   Runs the four ledger workloads (see Workloads) in this process on the
   DES engine, prints every end-to-end metric by name with its unit and
   clock, checks every run against the set-up goldens, and exits 1 on
   any failure.  [--trace] is a separate invocation that alternates
   untraced and traced passes and prints the per-layer metrics.  When a
   single workload is selected, the last line of standard output is one
   JSON object: {"correct", "attempted", "failed", "metrics"}, where the
   metrics are the end-to-end ones, or the per-layer ones with --trace;
   when the set-up fails it reads correct false with no metrics.

     dune exec bench/ledger/ledger.exe -- [--seed N] [--workload W]...
       [--seconds S] [--trace [0|1]] [--json [FILE]]

   Without --seconds each workload runs its fixed pass count. *)

open Ledger_core
module J = Obs.Json
module M = Measure

let usage () =
  Printf.eprintf
    "usage: ledger.exe [--seed N] [--workload W]... [--seconds S] [--trace [0|1]] [--json [FILE]]\n\
     workloads: %s\n"
    (String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

type opts = {
  seed : int;
  workloads : Workloads.t list;
  budget : M.budget option;
  trace : bool;
  json : string option;
}

let parse argv =
  let int_arg s = match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage () in
  let rec go o = function
    | [] -> o
    | "--seed" :: n :: rest -> go { o with seed = int_arg n } rest
    | "--workload" :: name :: rest -> (
        match Workloads.find name with
        | Some w -> go { o with workloads = o.workloads @ [ w ] } rest
        | None ->
            Printf.eprintf "unknown workload %S\n" name;
            usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 -> go { o with budget = Some (M.Seconds s) } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--json" :: file :: rest when not (String.starts_with ~prefix:"--" file) ->
        go { o with json = Some file } rest
    | "--json" :: rest -> go { o with json = Some "BENCH_ledger.json" } rest
    | _ -> usage ()
  in
  let o = go { seed = 1; workloads = []; budget = None; trace = false; json = None } argv in
  if o.workloads = [] then { o with workloads = Workloads.all } else o

let value_string v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v

let table metrics =
  let t = Stats.Table.create ~columns:[ "metric"; "value"; "unit"; "clock"; "n" ] in
  List.iter
    (fun (m : M.metric) ->
      Stats.Table.add_row t
        [ m.M.name; value_string m.M.value; m.M.unit; M.clock_name m.M.clock; string_of_int m.M.n ])
    metrics;
  Stats.Table.render t

let metric_map ~full metrics =
  J.Obj
    (List.map
       (fun (m : M.metric) ->
         ( m.M.name,
           J.Obj
             ([ ("value", J.Float m.M.value); ("unit", J.String m.M.unit) ]
             @
             if full then [ ("clock", J.String (M.clock_name m.M.clock)); ("n", J.Int m.M.n) ]
             else []) ))
       metrics)

let report o (m : M.t) =
  let w = m.M.workload in
  Printf.printf "== %s  seed %d  %s  %d programs  %d untraced + %d traced passes\n" w.Workloads.name
    o.seed w.Workloads.config.Runtime.Config.name (List.length m.M.setup.Workloads.programs)
    (List.length m.M.passes) (List.length m.M.traced);
  print_string (table (if o.trace then M.layers m else M.e2e m @ M.diagnostics m));
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (M.failures m);
  (match m.M.traced with
  | first :: _ when o.trace ->
      let file = Printf.sprintf "trace_ledger_%s.json" w.Workloads.name in
      let process_name = "ledger " ^ w.Workloads.name ^ " (host ns)" in
      J.to_file file (Layers.chrome_trace first.M.tracer ~process_name);
      let tiled =
        List.for_all
          (fun t -> Layers.attributed_ns t.M.tracer = Layers.traced_ns t.M.tracer)
          m.M.traced
      in
      Printf.printf "layer self times tile the traced interval: %b; host spans -> %s\n" tiled file
  | _ -> ());
  print_newline ();
  ( w.Workloads.name,
    J.Obj
      [
        ("config", J.String w.Workloads.config.Runtime.Config.name);
        ("programs", J.Int (List.length m.M.setup.Workloads.programs));
        ("attempted", J.Int (M.attempted m));
        ("failed", J.Int (M.failed m));
        ("e2e", metric_map ~full:true (M.e2e m));
        ("layers", metric_map ~full:true (M.layers m));
        ("diagnostics", metric_map ~full:true (M.diagnostics m));
      ] )

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  let measured =
    List.map
      (fun w ->
        let budget = Option.value o.budget ~default:(M.Passes w.Workloads.passes) in
        match M.measure w ~seed:o.seed ~budget ~trace:o.trace with
        | m -> Some (m, report o m)
        | exception e ->
            Printf.printf "SETUP FAILED %s: %s\n%!" w.Workloads.name (Printexc.to_string e);
            None)
      o.workloads
  in
  let ok = List.for_all (function Some (m, _) -> M.failed m = 0 | None -> false) measured in
  Option.iter
    (fun file ->
      J.to_file file
        (J.Obj
           [
             ("seed", J.Int o.seed);
             ("trace", J.Bool o.trace);
             ("workloads", J.Obj (List.filter_map (Option.map snd) measured));
           ]))
    o.json;
  let result_line ~attempted ~failed metrics =
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool ok);
              ("attempted", J.Int attempted);
              ("failed", J.Int failed);
              ("metrics", metric_map ~full:false metrics);
            ]))
  in
  (match measured with
  | [ Some (m, _) ] ->
      result_line ~attempted:(M.attempted m) ~failed:(M.failed m)
        (if o.trace then M.layers m else M.e2e m)
  | [ None ] -> result_line ~attempted:0 ~failed:0 []
  | _ -> ());
  exit (if ok then 0 else 1)

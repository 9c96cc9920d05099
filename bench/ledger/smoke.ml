(* Smoke test of the ledger: one untraced and one traced pass per
   workload, asserting outcomes only, never timings.

   - traced layer self times sum exactly to the traced interval;
   - tracing is neutral: a traced run's witness and wall_ns equal the
     untraced run's;
   - exact (simulated and count) metrics are identical across two
     measurements;
   - the emitted metric names are the names in BENCHMARK.json, and
     every end-to-end value is positive, as the bounds assume. *)

open Ledger_core
module M = Measure
module W = Workloads
module J = Obs.Json

let seed = 1
let measure w = M.measure ~setups:1 w ~seed ~budget:(M.Passes 1) ~trace:true

let benchmark_names key =
  let doc =
    match J.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  in
  match Option.bind (J.member key doc) J.to_list_opt with
  | None -> Alcotest.fail ("BENCHMARK.json: no list " ^ key)
  | Some items -> List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_string_opt) items

let exact ms =
  List.filter_map
    (fun (m : M.metric) -> if m.M.clock = M.Sim then Some (m.M.name, m.M.value) else None)
    ms

let test_workload (w : W.t) () =
  let m = measure w in
  Alcotest.(check (list string)) "no failed run" [] (M.failures m);
  Alcotest.(check int) "one traced pass" 1 (List.length m.M.traced);
  List.iter
    (fun (t : M.traced) ->
      Alcotest.(check int) "layer self times tile the traced interval" (Layers.traced_ns t.M.tracer)
        (Layers.attributed_ns t.M.tracer))
    m.M.traced;
  List.iter
    (fun p ->
      let bare = W.run_program w ~seed p in
      let traced = W.run_program w ~seed ~tracer:(Layers.create ()) p in
      let key (r : W.run) =
        (Stats.Run_result.deterministic_witness r.W.result, r.W.result.Stats.Run_result.wall_ns)
      in
      Alcotest.(check (pair string int))
        ("trace-neutral " ^ p.W.prog.Api.name)
        (key bare) (key traced))
    m.M.setup.W.programs;
  let again = measure w in
  let exact_metrics m = exact (M.e2e m @ M.layers m) in
  Alcotest.(check (list (pair string (float 0.0))))
    "exact metrics repeat" (exact_metrics m) (exact_metrics again);
  let check_names what key ms =
    Alcotest.(check (list string)) what (benchmark_names key) (List.map (fun x -> x.M.name) ms)
  in
  check_names "end-to-end names" "end_to_end" (M.e2e m);
  check_names "per-layer names" "per_layer" (M.layers m);
  List.iter
    (fun (x : M.metric) ->
      let positive = Float.is_finite x.M.value && x.M.value > 0.0 in
      Alcotest.(check bool) (x.M.name ^ " is positive") true positive)
    (M.e2e m)

let () =
  Alcotest.run "ledger"
    [
      ( "smoke",
        List.map (fun (w : W.t) -> Alcotest.test_case w.W.name `Quick (test_workload w)) W.all );
    ]

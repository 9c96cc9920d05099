module Rr = Stats.Run_result
module W = Workloads

type budget = Passes of int | Seconds of float
type pass = { host_ns : int; alloc_words : float; failures : string list; ref_ns : int }
type traced = { tpass : pass; tracer : Layers.t; finish_ns : int }

type t = {
  workload : W.t;
  seed : int;
  setups : (int * int) list;
  setup : W.setup;
  sample : W.run list;
  passes : pass list;
  traced : traced list;
}

let now = Layers.now

(* The reference kernel, timed right after every untraced pass and
   every set-up.  On a shared host the machine's speed drifted by up to
   35% within minutes (median pass time over ten back-to-back runs of
   profile-ic), so host times from different runs do not compare.  This
   fixed stdlib-only kernel does the simulator's kind of host work
   (small allocations, hashtable traffic, a sort) and slows down with
   the machine; a kernel that allocates nothing tracked the drift worse.
   Over ten runs per workload the quartile spread of the pass/reference
   ratio stayed at or below 1.7% on a quiet host, against up to 14% for
   the fastest pass alone, and at or below 4.7% on a busier one.  Set-up time is scaled to seconds at a kernel time of
   [reference_nominal_ns]: unscaled, its median over ten runs moved by
   88% between two sets of runs. *)
let reference () =
  let t0 = now () in
  let table = Hashtbl.create 16 in
  let x = ref 12345 and kept = ref [] in
  for i = 0 to 10_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace table (!x land 0x3fff) (Bytes.make 24 'x');
    if i land 3 = 0 then kept := (i, !x) :: !kept;
    match Hashtbl.find_opt table ((!x lsr 7) land 0x3fff) with
    | Some b -> Bytes.set b 0 'y'
    | None -> ()
  done;
  ignore (Sys.opaque_identity (List.sort compare !kept));
  now () - t0

(* About what [reference] takes on a 2-vCPU Intel Xeon VM. *)
let reference_nominal_ns = 2_500_000

(* Ends every timed pass and set-up, so that each pays for its own
   garbage and the reference kernel after it starts from an empty minor
   heap, where the kernel's allocation triggers no collection.  Without
   it the kernel's time depended on the heap left behind: by 10% between
   seeds on pages-pipe. *)
let settle () =
  Gc.minor ();
  ignore (Gc.major_slice 0)

let run_pass (w : W.t) (s : W.setup) ~seed ?tracer () =
  let a0 = Gc.minor_words () in
  let t0 = now () in
  let outcomes =
    List.map2
      (fun (p : W.program) g ->
        let name = p.W.prog.Api.name in
        match W.run_program w ~seed ?tracer p with
        | r when W.passes_gate g r -> Ok r
        | _ -> Error (Printf.sprintf "%s: %s: off the golden" w.W.name name)
        | exception e -> Error (Printf.sprintf "%s: %s: %s" w.W.name name (Printexc.to_string e)))
      s.W.programs s.W.goldens
  in
  settle ();
  let host_ns = now () - t0 in
  let alloc_words = Gc.minor_words () -. a0 in
  let failures = List.filter_map (function Error m -> Some m | Ok _ -> None) outcomes in
  ( { host_ns; alloc_words; failures; ref_ns = 0 },
    List.filter_map Result.to_option outcomes )

let measure ?(setups = 9) (w : W.t) ~seed ~budget ~trace =
  let timed =
    List.init (max 1 setups) (fun _ ->
        let t0 = now () in
        let s = W.setup w ~seed in
        settle ();
        let dt = now () - t0 in
        ((dt, reference ()), s))
  in
  let setup = snd (List.nth timed (List.length timed - 1)) in
  if List.exists (fun (_, s) -> s.W.goldens <> setup.W.goldens) timed then
    failwith (w.W.name ^ ": set-up repetitions disagree on the goldens");
  let t_start = now () in
  let more i =
    match budget with
    | Passes n -> i < if trace then max 1 (n / 4) else n
    | Seconds s -> i = 0 || float_of_int (now () - t_start) < s *. 1e9
  in
  let rec loop i passes traced sample =
    if not (more i) then (List.rev passes, List.rev traced, Option.value sample ~default:[])
    else begin
      let p, runs = run_pass w setup ~seed () in
      let p = { p with ref_ns = reference () } in
      let sample =
        if Option.is_none sample && List.is_empty p.failures then Some runs else sample
      in
      let traced =
        if not trace then traced
        else begin
          let tracer = Layers.create ~record:(List.is_empty traced) () in
          let tpass, truns = run_pass w setup ~seed ~tracer () in
          let finish_ns = List.fold_left (fun a (r : W.run) -> a + r.W.finish_ns) 0 truns in
          { tpass; tracer; finish_ns } :: traced
        end
      in
      loop (i + 1) (p :: passes) traced sample
    end
  in
  let passes, traced, sample = loop 0 [] [] None in
  { workload = w; seed; setups = List.map fst timed; setup; sample; passes; traced }

let all_passes m = m.passes @ List.map (fun t -> t.tpass) m.traced
let programs m = List.length m.setup.W.programs
let attempted m = programs m * List.length (all_passes m)
let failures m = List.concat_map (fun p -> p.failures) (all_passes m)
let failed m = List.length (failures m)

type clock = Host | Sim
type metric = { name : string; value : float; unit : string; clock : clock; n : int }

let clock_name = function Host -> "host" | Sim -> "sim"

(* Nearest rank, except that an even-sized median averages the middle two. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if q = 0.5 && n mod 2 = 0 then (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  else a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms ns = float_of_int ns /. 1e6
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let results m = List.map (fun (r : W.run) -> r.W.result) m.sample
let host name unit n value = { name; value; unit; clock = Host; n }
let sim m name unit value = { name; value; unit; clock = Sim; n = List.length m.sample }

let pass_ms m = List.map (fun p -> ms p.host_ns) m.passes

let e2e m =
  let np = List.length m.passes in
  let rs = results m in
  let slowdowns =
    if List.is_empty rs then []
    else
      List.map2
        (fun (r : Rr.t) (g : W.golden) ->
          log (ratio (float_of_int r.Rr.wall_ns) (float_of_int g.W.baseline_ns)))
        rs m.setup.W.goldens
  in
  [
    host "setup_s" "s" (List.length m.setups)
      (median
         (List.map
            (fun (ns, ref_ns) ->
              float_of_int ns /. float_of_int ref_ns *. float_of_int reference_nominal_ns /. 1e9)
            m.setups));
    host "pass_per_ref" "x" np
      (median (List.map (fun p -> float_of_int p.host_ns /. float_of_int p.ref_ns) m.passes));
    host "alloc_mb_per_pass" "MB" np
      (median (List.map (fun p -> p.alloc_words *. 8.0 /. 1e6) m.passes));
    sim m "sim_wall_ms" "ms" (ms (sum (fun r -> r.Rr.wall_ns) rs));
    sim m "sim_slowdown_geomean" "x"
      (exp (List.fold_left ( +. ) 0.0 slowdowns /. float_of_int (List.length slowdowns)));
    sim m "sim_peak_pages" "pages" (float_of_int (sum (fun r -> r.Rr.peak_mem_pages) rs));
  ]

(* The KV request-latency histograms of all six shapes, pooled. *)
let kv_latency rs =
  let hists = List.filter_map (fun r -> Obs.Metrics.find_hist r.Rr.metrics "kv:req_ns") rs in
  let buckets =
    List.concat_map (fun h -> h.Obs.Metrics.buckets) hists
    |> List.sort compare
    |> List.fold_left
         (fun acc (upper, c) ->
           match acc with
           | (u, c') :: rest when u = upper -> (u, c + c') :: rest
           | _ -> (upper, c) :: acc)
         []
    |> List.rev
  in
  let fold f init = List.fold_left (fun a h -> f a h) init hists in
  {
    Obs.Metrics.hname = "kv:req_ns";
    count = fold (fun a h -> a + h.Obs.Metrics.count) 0;
    sum = fold (fun a h -> a + h.Obs.Metrics.sum) 0;
    min_v = fold (fun a h -> min a h.Obs.Metrics.min_v) max_int;
    max_v = fold (fun a h -> max a h.Obs.Metrics.max_v) 0;
    buckets;
  }

let counter rs key = sum (fun r -> Obs.Metrics.counter_value r.Rr.metrics key) rs

let kv_metrics m =
  let rs = results m in
  let h = kv_latency rs in
  let pct q = if h.Obs.Metrics.count = 0 then 0.0 else Obs.Metrics.percentile h q /. 1e3 in
  let completed = counter rs "kv:commits" + counter rs "kv:snapshots" in
  [
    { (sim m "kv.req_us.p50" "us" (pct 0.50)) with n = h.Obs.Metrics.count };
    { (sim m "kv.req_us.p99" "us" (pct 0.99)) with n = h.Obs.Metrics.count };
    sim m "kv.req_per_sim_ms" "1/ms"
      (ratio (float_of_int completed) (ms (sum (fun r -> r.Rr.wall_ns) rs)));
  ]

let diagnostics m =
  let att = attempted m in
  let np = List.length m.passes in
  [
    host "setup_s.raw" "s" (List.length m.setups)
      (median (List.map (fun (ns, _) -> float_of_int ns /. 1e9) m.setups));
    host "pass_ms.min" "ms" np (quantile 0.0 (pass_ms m));
    host "pass_ms.p50" "ms" np (median (pass_ms m));
    host "pass_ms.p90" "ms" np (quantile 0.9 (pass_ms m));
    host "ref_ms.p50" "ms" np (median (List.map (fun p -> ms p.ref_ns) m.passes));
    {
      name = "failed_ratio";
      value = ratio (float_of_int (failed m)) (float_of_int att);
      unit = "ratio";
      clock = Sim;
      n = att;
    };
  ]
  @ if m.workload.W.kind = W.Kv then kv_metrics m else []

let layers m =
  match m.traced with
  | [] -> []
  | first :: _ ->
      let rs = results m in
      let nt = List.length m.traced in
      let self_ns l =
        median (List.map (fun t -> float_of_int (Layers.self_ns t.tracer l)) m.traced)
      in
      let count name v = sim m name "count" (float_of_int v) in
      (* Calls repeat exactly from pass to pass, so the first traced pass stands for all. *)
      let calls l = Layers.calls first.tracer l in
      let self_ms l = host (Layers.name l ^ ".self_ms") "ms" nt (self_ns l /. 1e6) in
      let calls_metric l = { (count (Layers.name l ^ ".calls") (calls l)) with n = nt } in
      let layer l =
        [
          self_ms l;
          calls_metric l;
          host (Layers.name l ^ ".ns_per_call") "ns" nt
            (ratio (self_ns l) (float_of_int (calls l)));
        ]
      in
      let events = sum (fun (r : W.run) -> r.W.events) m.sample in
      let dispatches = sum (fun (r : W.run) -> r.W.dispatches) m.sample in
      let stat f = sum f rs in
      let bd =
        List.fold_left (fun acc r -> Stats.Breakdown.merge acc (Rr.aggregate_breakdown r))
          (Stats.Breakdown.create ()) rs
      in
      let pass_median ps = median (List.map (fun p -> ms p.host_ns) ps) in
      let kv k = counter rs ("kv:" ^ k) in
      [
        self_ms Layers.Sim;
        calls_metric Layers.Sim;
        host "sim.ns_per_event" "ns" nt (ratio (self_ns Layers.Sim) (float_of_int events));
        count "sim.events" events;
        count "sim.dispatches" dispatches;
        sim m "sim.fastpath_ratio" "ratio"
          (1.0 -. ratio (float_of_int dispatches) (float_of_int events));
      ]
      @ List.concat_map layer Layers.[ Run; Work; Mem; Lock; Barrier; Cond; Thread; Atomic; Txn ]
      @ [ self_ms Layers.Workload ]
      @ layer Layers.Obs
      @ [
          host "prof.finish_ms" "ms" nt (median (List.map (fun t -> ms t.finish_ns) m.traced));
          host "trace.overhead" "x" nt
            (ratio (pass_median (List.map (fun t -> t.tpass) m.traced)) (pass_median m.passes));
          count "detclock.token_acquisitions" (stat (fun r -> r.Rr.token_acquisitions));
          count "detclock.overflow_interrupts" (stat (fun r -> r.Rr.overflow_interrupts));
          sim m "detclock.coarsened_ratio" "ratio"
            (ratio
               (float_of_int (stat (fun r -> r.Rr.coarsened_chunks)))
               (float_of_int (stat (fun r -> r.Rr.token_acquisitions))));
          count "vmem.commits" (stat (fun r -> r.Rr.commits));
          count "vmem.pages_committed" (stat (fun r -> r.Rr.pages_committed));
          count "vmem.pages_merged" (stat (fun r -> r.Rr.pages_merged));
          sim m "vmem.bytes_merged" "bytes" (float_of_int (stat (fun r -> r.Rr.bytes_merged)));
          count "vmem.write_faults" (stat (fun r -> r.Rr.write_faults));
          count "vmem.pages_propagated" (stat (fun r -> r.Rr.pages_propagated));
          count "vmem.versions" (stat (fun r -> r.Rr.versions));
          sim m "vmem.merge_ratio" "ratio"
            (ratio
               (float_of_int (stat (fun r -> r.Rr.pages_merged)))
               (float_of_int (stat (fun r -> r.Rr.pages_committed))));
        ]
      @ List.map
          (fun (c, share) -> sim m ("share." ^ Stats.Breakdown.category_name c) "ratio" share)
          (Stats.Breakdown.fractions bd)
      @ [
          count "kv.commits" (kv "commits");
          count "kv.aborts" (kv "aborts");
          count "kv.snapshots" (kv "snapshots");
          sim m "kv.abort_ratio" "ratio"
            (ratio (float_of_int (kv "aborts")) (float_of_int (kv "commits" + kv "aborts")));
        ]
      @ kv_metrics m

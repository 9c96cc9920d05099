(* Tests for lib/prof: the conservation invariant (states tile every
   thread's lifetime exactly) as a qcheck property over random programs
   and all runtimes, determinism-neutrality of profiling, per-chunk
   consistency, critical-path sanity, what-if validity, the histogram
   p999 quantile, and [Profile.finish] against its previous
   implementation (test/prof/profile_oracle.ml). *)

module St = Obs.Thread_state
module Res = Stats.Run_result

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let program_of name = (Workload.Registry.find name).Workload.Registry.program

let det_runtimes = List.filter Runtime.Run.deterministic Runtime.Run.all

let profile_run rt ?(seed = 1) ?(nthreads = 8) program =
  let c = Prof.Profile.create () in
  let r =
    Runtime.Run.run rt ~seed ~nthreads ~observer:(Prof.Profile.observer c)
      ~obs:(Prof.Profile.sink c) program
  in
  (Prof.Profile.finish c ~wall_ns:r.Res.wall_ns, r)

let assert_conserved ~what p =
  if not (Prof.Profile.conservation_ok p) then
    List.iter
      (fun tp ->
        if not (Prof.Profile.thread_conserved tp) then
          Alcotest.failf "%s: tid %d not conserved: lifetime=%d busy=%d gap=%d overlap=%d"
            what tp.Prof.Profile.ptid
            (Prof.Profile.lifetime_ns tp)
            (Prof.Profile.busy_ns tp) tp.Prof.Profile.gap_ns tp.Prof.Profile.overlap_ns)
      p.Prof.Profile.threads

(* ------------------------------------------------------------------ *)
(* Conservation                                                       *)
(* ------------------------------------------------------------------ *)

let prop_conservation_all_runtimes =
  QCheck.Test.make ~name:"conservation: states tile lifetimes, every runtime" ~count:20
    QCheck.(triple (int_range 1 10_000) (int_range 2 8) bool)
    (fun (seed, nthreads, lock_heavy) ->
      let program =
        if lock_heavy then Workload.Synthetic.make_lock_heavy ~seed ()
        else Workload.Synthetic.make ~seed ()
      in
      List.for_all
        (fun rt ->
          let p, _ = profile_run rt ~seed ~nthreads program in
          assert_conserved ~what:(Runtime.Run.name rt) p;
          Prof.Profile.conservation_ok p)
        Runtime.Run.all)

let test_registry_conservation () =
  (* Deterministic sweep: every registry workload, every deterministic
     runtime, plus pthreads on a subset. *)
  List.iter
    (fun name ->
      List.iter
        (fun rt ->
          let p, _ = profile_run rt (program_of name) in
          assert_conserved ~what:(name ^ "/" ^ Runtime.Run.name rt) p;
          check_bool (name ^ " conserved") true (Prof.Profile.conservation_ok p))
        det_runtimes)
    Workload.Registry.names;
  List.iter
    (fun name ->
      let p, _ = profile_run Runtime.Run.pthreads (program_of name) in
      assert_conserved ~what:(name ^ "/pthreads") p)
    [ "histogram"; "kmeans"; "dedup" ]

let test_chunks_consistent () =
  List.iter
    (fun name ->
      let p, _ = profile_run Runtime.Run.consequence_ic (program_of name) in
      List.iter
        (fun tp ->
          check_bool
            (Printf.sprintf "%s tid %d chunk table repartitions by_state" name
               tp.Prof.Profile.ptid)
            true
            (Prof.Profile.chunks_consistent tp))
        p.Prof.Profile.threads)
    [ "kmeans"; "canneal"; "barnes"; "dedup" ]

let test_totals_match_breakdown_wall () =
  (* The profiler's per-state totals and the runtime's own Breakdown
     are two views of the same charges: their grand totals agree. *)
  let p, r = profile_run Runtime.Run.consequence_ic (program_of "kmeans") in
  let profile_total = Array.fold_left ( + ) 0 p.Prof.Profile.totals in
  let bd_total =
    List.fold_left
      (fun acc (pt : Res.thread_stat) -> acc + Stats.Breakdown.total pt.Res.breakdown)
      0 r.Res.per_thread
  in
  check_int "profile totals = breakdown totals" bd_total profile_total

(* ------------------------------------------------------------------ *)
(* Determinism neutrality                                             *)
(* ------------------------------------------------------------------ *)

let test_profiling_is_neutral () =
  (* Attaching the collector (sink + observer) must not perturb the
     simulation: witnesses and simulated wall time are byte-identical
     with and without it, on every runtime. *)
  List.iter
    (fun rt ->
      let program = program_of "kmeans" in
      let bare = Runtime.Run.run rt ~seed:5 ~nthreads:8 program in
      let c = Prof.Profile.create () in
      let profiled =
        Runtime.Run.run rt ~seed:5 ~nthreads:8 ~observer:(Prof.Profile.observer c)
          ~obs:(Prof.Profile.sink c) program
      in
      check_string
        (Runtime.Run.name rt ^ " witness unchanged")
        (Res.deterministic_witness bare)
        (Res.deterministic_witness profiled);
      check_int
        (Runtime.Run.name rt ^ " wall_ns unchanged")
        bare.Res.wall_ns profiled.Res.wall_ns)
    Runtime.Run.all

let test_report_runs_whole_registry () =
  (* The acceptance criterion: the profile report produces a per-thread
     state breakdown and a critical path for every registry workload. *)
  List.iter
    (fun name ->
      let r = Prof.Report.run (program_of name) in
      check_bool (name ^ " conserved") true (Prof.Report.conservation_ok r);
      check_bool (name ^ " has threads") true (r.Prof.Report.profile.Prof.Profile.threads <> []);
      check_bool (name ^ " path nonempty") true
        (r.Prof.Report.cpath.Prof.Critical_path.path_ns > 0))
    Workload.Registry.names

(* ------------------------------------------------------------------ *)
(* Critical path                                                      *)
(* ------------------------------------------------------------------ *)

let test_critical_path_sanity () =
  List.iter
    (fun name ->
      let p, _ = profile_run Runtime.Run.consequence_ic (program_of name) in
      let c = Prof.Critical_path.compute p in
      check_bool (name ^ " path positive") true (c.Prof.Critical_path.path_ns > 0);
      check_bool (name ^ " path <= wall") true
        (c.Prof.Critical_path.path_ns <= c.Prof.Critical_path.wall_ns);
      check_bool (name ^ " not truncated") true (not c.Prof.Critical_path.truncated);
      check_int
        (name ^ " by_state sums to path")
        c.Prof.Critical_path.path_ns
        (Array.fold_left ( + ) 0 c.Prof.Critical_path.by_state);
      check_int
        (name ^ " by_thread sums to path")
        c.Prof.Critical_path.path_ns
        (List.fold_left (fun a (_, ns) -> a + ns) 0 c.Prof.Critical_path.by_thread);
      List.iter
        (fun (_, s) -> check_bool (name ^ " projection >= 1") true (s >= 1.0))
        (Prof.Critical_path.projections c))
    Workload.Registry.names

let test_critical_path_deterministic () =
  let run () =
    let p, _ = profile_run Runtime.Run.consequence_ic (program_of "ferret") in
    Prof.Critical_path.compute p
  in
  let a = run () and b = run () in
  check_bool "identical critical path across runs" true (a = b)

(* ------------------------------------------------------------------ *)
(* What-if                                                            *)
(* ------------------------------------------------------------------ *)

let test_whatif_valid_on_det () =
  let w = Prof.Whatif.run ~seed:2 ~nthreads:8 (program_of "kmeans") in
  check_int "all scenarios ran" (List.length Prof.Whatif.scenarios)
    (List.length w.Prof.Whatif.rows);
  List.iter
    (fun r ->
      check_bool (r.Prof.Whatif.scenario ^ " witnesses preserved") true
        (not r.Prof.Whatif.diverged);
      check_bool (r.Prof.Whatif.scenario ^ " speedup sane") true
        (r.Prof.Whatif.speedup >= 0.95);
      check_bool (r.Prof.Whatif.scenario ^ " wall positive") true (r.Prof.Whatif.wall_ns > 0))
    w.Prof.Whatif.rows

let test_whatif_cheaper_never_much_slower () =
  (* Every scenario only lowers costs, so simulated wall time must not
     grow (beyond rounding on the max 1 guard). *)
  let w = Prof.Whatif.run (program_of "ferret") in
  List.iter
    (fun r ->
      check_bool (r.Prof.Whatif.scenario ^ " not slower") true
        (r.Prof.Whatif.wall_ns <= w.Prof.Whatif.base_wall_ns))
    w.Prof.Whatif.rows

(* ------------------------------------------------------------------ *)
(* Quantiles                                                          *)
(* ------------------------------------------------------------------ *)

let test_p999 () =
  let m = Obs.Metrics.create () in
  for i = 1 to 10_000 do
    Obs.Metrics.observe m "lat" i
  done;
  let s = Obs.Metrics.snapshot m in
  let h = Option.get (Obs.Metrics.find_hist s "lat") in
  let p50 = Obs.Metrics.percentile h 0.5 in
  let p99 = Obs.Metrics.percentile h 0.99 in
  let p999 = Obs.Metrics.percentile h 0.999 in
  check_bool "p50 <= p99" true (p50 <= p99);
  check_bool "p99 <= p999" true (p99 <= p999);
  check_bool "p999 <= max" true (p999 <= float_of_int h.Obs.Metrics.max_v);
  (* and the JSON export carries the new field *)
  let json = Obs.Json.to_string (Obs.Metrics.to_json s) in
  let contains hay needle =
    let n = String.length needle in
    let rec find i =
      if i + n > String.length hay then false
      else String.sub hay i n = needle || find (i + 1)
    in
    find 0
  in
  check_bool "json has p999" true (contains json "\"p999\"")

let test_profile_hists_have_states () =
  let p, _ = profile_run Runtime.Run.consequence_ic (program_of "kmeans") in
  List.iter
    (fun key ->
      match Obs.Metrics.find_hist p.Prof.Profile.hists key with
      | None -> Alcotest.failf "missing histogram %s" key
      | Some h -> check_bool (key ^ " populated") true (h.Obs.Metrics.count > 0))
    [ "state:run"; "state:token_wait"; "state:commit" ]

(* ------------------------------------------------------------------ *)
(* finish against the previous implementation                         *)
(* ------------------------------------------------------------------ *)

(* A random interleaving of per-thread interval streams: each step picks
   a thread (tids are sparse, up to 200, so the dense tid index has
   holes), a state, a duration, an offset from the thread's last t1
   (usually 0; sometimes a gap or an overlap) and a chunk step that may
   go back.  One step in eight draws its duration, offset or chunk step
   from the whole int range, so times and ordinals wrap. *)
let step_gen =
  QCheck.Gen.(
    let wide small = frequency [ (7, small); (1, oneof [ int; oneofl [ min_int; max_int ] ]) ] in
    pair
      (pair (frequency [ (4, oneofl [ 0; 1; 2; 5; 9 ]); (1, int_bound 200) ]) (int_bound (St.n - 1)))
      (triple
         (frequency [ (7, int_bound 50); (1, map (fun x -> x land max_int) int) ])
         (wide (oneofl [ 0; 0; 0; 0; 3; -1; -2 ]))
         (wide (oneofl [ 0; 0; 1; 1; 2; -1; -3 ]))))

let print_step ((tid, si), (dur, offset, step)) =
  Printf.sprintf "t%d %s dur=%d off=%d step=%d" tid (St.name (St.of_index si)) dur offset step

let stream_arb =
  QCheck.make
    ~print:QCheck.Print.(list print_step)
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 60) step_gen)

(* Intervals as a runtime would emit them for [steps], continuing each
   thread from [clock]/[chunk]; differences wrap. *)
let intervals_of ~clock ~chunk steps =
  List.map
    (fun ((tid, si), (dur, offset, step)) ->
      let t0 = Option.value (Hashtbl.find_opt clock tid) ~default:0 + offset in
      let ck = Option.value (Hashtbl.find_opt chunk tid) ~default:0 + step in
      let iv =
        { St.stid = tid; state = St.of_index si; t0; t1 = t0 + dur; chunk = ck; waker = -1 }
      in
      Hashtbl.replace clock tid iv.St.t1;
      Hashtbl.replace chunk tid ck;
      iv)
    steps

(* [p] equals the oracle's profile of [fed], and its log decodes to the
   oracle's per-thread intervals. *)
let matches_oracle p ~fed ~spawns ~wall_ns =
  let expect, per_thread =
    Profile_oracle.finish ~states_rev:(List.rev fed) ~nstates:(List.length fed)
      ~parents_rev:(List.rev spawns) ~wall_ns
  in
  let decoded = Hashtbl.create 16 in
  Obs.Interval_log.iter
    (fun (iv : St.interval) ->
      Hashtbl.replace decoded iv.St.stid
        (iv :: Option.value (Hashtbl.find_opt decoded iv.St.stid) ~default:[]))
    p.Prof.Profile.log;
  { p with Prof.Profile.log = Obs.Interval_log.empty } = expect
  && List.for_all
       (fun (tid, ivs) -> List.rev (Hashtbl.find decoded tid) = Array.to_list ivs)
       per_thread
  && Hashtbl.length decoded = List.length per_thread

let prop_finish_matches_oracle =
  QCheck.Test.make ~name:"finish equals the previous implementation" ~count:500 ~long_factor:50
    QCheck.(
      triple stream_arb stream_arb (small_list (pair (int_bound 200) (int_bound 200))))
    (fun (steps, more, spawns) ->
      let c = Prof.Profile.create () in
      let sink = Prof.Profile.sink c in
      let clock = Hashtbl.create 8 and chunk = Hashtbl.create 8 in
      let fed = intervals_of ~clock ~chunk steps in
      List.iter sink.Obs.Sink.state fed;
      List.iter
        (fun (child, parent) ->
          Prof.Profile.observer c
            (Runtime.Rt_event.Release { tid = parent; obj = "t:" ^ string_of_int child }))
        spawns;
      let wall_ns = List.fold_left (fun m (iv : St.interval) -> max m iv.St.t1) 0 fed in
      let first = Prof.Profile.finish c ~wall_ns in
      (* A second finish after more intervals; the first must not move. *)
      let fed_more = intervals_of ~clock ~chunk more in
      List.iter sink.Obs.Sink.state fed_more;
      let second = Prof.Profile.finish c ~wall_ns in
      matches_oracle first ~fed ~spawns ~wall_ns
      && matches_oracle second ~fed:(fed @ fed_more) ~spawns ~wall_ns)

(* A chunk ordinal too far from the dense ones is kept aside; once the
   dense range has grown to reach it, its next interval must add to the
   same chunk, not start a second one. *)
let test_far_chunk_rejoins () =
  let steps =
    List.map (fun step -> ((3, 0), (10, 0, step))) ([ 0; 100; -99 ] @ List.init 99 (fun _ -> 1))
  in
  let c = Prof.Profile.create () in
  let fed = intervals_of ~clock:(Hashtbl.create 1) ~chunk:(Hashtbl.create 1) steps in
  List.iter (Prof.Profile.sink c).Obs.Sink.state fed;
  let p = Prof.Profile.finish c ~wall_ns:0 in
  check_int "one entry per ordinal" 101
    (Array.length (List.hd p.Prof.Profile.threads).Prof.Profile.chunks);
  check_bool "equals the oracle" true (matches_oracle p ~fed ~spawns:[] ~wall_ns:0)

(* The histogram rejects a negative duration before the fold or the log
   sees the interval, so the collector is left as it was. *)
let test_negative_interval_rejected () =
  let c = Prof.Profile.create () in
  let sink = Prof.Profile.sink c in
  let good = { St.stid = 1; state = St.Run; t0 = 0; t1 = 10; chunk = 0; waker = -1 } in
  sink.Obs.Sink.state good;
  let before = Prof.Profile.finish c ~wall_ns:10 in
  (match sink.Obs.Sink.state { good with St.t0 = 10; t1 = 5; chunk = 1 } with
  | () -> Alcotest.fail "a negative duration was accepted"
  | exception Invalid_argument _ -> ());
  check_bool "collector unchanged" true (Prof.Profile.finish c ~wall_ns:10 = before)

(* ------------------------------------------------------------------ *)
(* Golden reports and the sinks' allocation                           *)
(* ------------------------------------------------------------------ *)

(* FNV digests of [Report.to_json] (profile and critical path) for two
   runs at 8 threads, seed 1, taken while the profile kept every
   interval as a record and regrouped them in [finish]. *)
let report_golden =
  [
    (Runtime.Run.consequence_ic, "kmeans", "4c9918c5151e0ff1");
    (Runtime.Run.pthreads, "water_nsquared", "0312e7b50a016973");
  ]

let test_report_golden () =
  List.iter
    (fun (rt, name, golden) ->
      let r = Prof.Report.run ~runtime:rt ~seed:1 ~nthreads:8 (program_of name) in
      let json = Obs.Json.to_string (Prof.Report.to_json r) in
      check_string
        (Printf.sprintf "%s %s report" (Runtime.Run.name rt) name)
        golden
        (Sim.Fnv.to_hex (Sim.Fnv.string Sim.Fnv.init json)))
    report_golden

(* Words [f ()] allocates, on the minor heap and directly on the major
   heap; the minor collections fold the domain's counters in. *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  f ();
  int_of_float (words () -. w0)

(* A runtime-like stream: eight threads in turn, each interval starting
   where its thread's last one ended, a new chunk every eight of a
   thread's intervals, and a waker on one interval in five. *)
let runtime_like ~from n =
  Array.init n (fun j ->
      let i = from + j in
      let tid = i mod 8 and k = i / 8 in
      {
        St.stid = tid;
        state = St.of_index (k mod St.n);
        t0 = 100 * k;
        t1 = 100 * (k + 1);
        chunk = k / 8;
        waker = (if k mod 5 = 0 then (tid + 1) mod 8 else -1);
      })

let test_sinks_allocation () =
  let c = Prof.Profile.create () in
  let sink = Obs.Sink.tee (Obs.Tracer.sink (Obs.Tracer.create ())) (Prof.Profile.sink c) in
  let n = 10_000 in
  Array.iter sink.Obs.Sink.state (runtime_like ~from:0 2_000);
  let ivs = runtime_like ~from:2_000 n in
  let words = allocated_words (fun () -> Array.iter sink.Obs.Sink.state ivs) in
  if words >= 6 * n then
    Alcotest.failf "%d words for %d intervals: two list cells an interval would cost %d" words n
      (6 * n);
  check_int "all folded" (2_000 + n) (Prof.Profile.finish c ~wall_ns:0).Prof.Profile.nintervals

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prof"
    [
      ( "conservation",
        [
          QCheck_alcotest.to_alcotest prop_conservation_all_runtimes;
          Alcotest.test_case "whole registry, all det runtimes" `Quick
            test_registry_conservation;
          Alcotest.test_case "chunk tables repartition by_state" `Quick
            test_chunks_consistent;
          Alcotest.test_case "profile totals = breakdown totals" `Quick
            test_totals_match_breakdown_wall;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "profiling leaves witnesses and wall time unchanged" `Quick
            test_profiling_is_neutral;
        ] );
      ( "report",
        [
          Alcotest.test_case "report runs on every registry workload" `Quick
            test_report_runs_whole_registry;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "sanity across the registry" `Quick test_critical_path_sanity;
          Alcotest.test_case "deterministic" `Quick test_critical_path_deterministic;
        ] );
      ( "what-if",
        [
          Alcotest.test_case "valid on consequence-ic" `Quick test_whatif_valid_on_det;
          Alcotest.test_case "cheaper costs never slower" `Quick
            test_whatif_cheaper_never_much_slower;
        ] );
      ( "finish",
        [
          QCheck_alcotest.to_alcotest prop_finish_matches_oracle;
          Alcotest.test_case "far chunk ordinal rejoins" `Quick test_far_chunk_rejoins;
          Alcotest.test_case "negative interval rejected" `Quick test_negative_interval_rejected;
        ] );
      ( "golden",
        [
          Alcotest.test_case "report digests" `Quick test_report_golden;
          Alcotest.test_case "sinks allocate less than list cells" `Quick test_sinks_allocation;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "p999 ordering and JSON export" `Quick test_p999;
          Alcotest.test_case "per-state histograms populated" `Quick
            test_profile_hists_have_states;
        ] );
    ]

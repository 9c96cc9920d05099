(* Tests for the deterministic transactional KV service (lib/kv):
   intent codec and arbitration unit tests, the wire-format arbitration
   against the list oracle of validate_oracle.ml, the
   strict-serializability oracle (deterministic sweep + qcheck
   sampling), the snapshot-reads-never-abort property, cross-runtime
   byte-identity of outcomes and abort counts, golden witnesses, the
   latency accounting, and a guard that a round stays off the major
   heap. *)

module R = Runtime.Run
module Res = Stats.Run_result

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let shapes = Kv.Traffic.all

(* ------------------------------------------------------------------ *)
(* Layout and codec                                                   *)
(* ------------------------------------------------------------------ *)

let test_layout_regions_disjoint () =
  (* Key space, status pages and per-thread intent regions must tile
     distinct page ranges of the heap. *)
  let last_key = Kv.Layout.ver_addr (Kv.Layout.n_keys - 1) + 8 in
  check_bool "keys below status" true (last_key <= Kv.Layout.remaining_addr 0);
  let last_status = Kv.Layout.aborts_addr (Kv.Layout.max_threads - 1) + 8 in
  check_bool "status below intents" true (last_status <= Kv.Layout.intent_addr 0);
  let last_intent = Kv.Layout.intent_addr (Kv.Layout.max_threads - 1) + Kv.Layout.intent_bytes in
  check_bool "intents inside heap" true
    (last_intent <= Kv.Layout.heap_pages * Kv.Layout.page_size);
  check_int "intent regions page-aligned" 0 (Kv.Layout.intent_addr 3 mod Kv.Layout.page_size)

let gen_intents =
  let open QCheck.Gen in
  let key = int_bound (Kv.Layout.n_keys - 1) in
  let read_entry =
    map3
      (fun key len ver -> { Kv.Intent.key; len = 1 + (len mod 8); ver })
      key (int_bound 7) (int_bound 0xFFFF)
  in
  list_size (int_bound 6)
    (map3
       (fun seq reads writes -> { Kv.Intent.seq; reads; writes })
       (int_bound 0xFF)
       (list_size (int_bound 3) read_entry)
       (list_size (int_bound 3) key))

let prop_intent_roundtrip =
  QCheck.Test.make ~name:"intent codec round-trips" ~count:300
    (QCheck.make gen_intents)
    (fun intents ->
      QCheck.assume (Kv.Intent.words_for intents * 8 <= Kv.Layout.intent_bytes);
      let buf = Bytes.make Kv.Layout.intent_bytes '\255' in
      Bytes.blit (Kv.Intent.encode intents) 0 buf 0 (Kv.Intent.words_for intents * 8);
      Kv.Intent.decode buf = intents)

let test_intent_capacity () =
  (* A full batch of worst-case transactions must fit in the region. *)
  let worst =
    List.init Kv.Service.batch (fun seq ->
        {
          Kv.Intent.seq;
          reads = List.init Kv.Txn.max_reads (fun i -> { Kv.Intent.key = i; len = 8; ver = 0 });
          writes = List.init Kv.Txn.max_writes Fun.id;
        })
  in
  check_bool "worst-case batch fits" true
    (Kv.Intent.words_for worst * 8 <= Kv.Layout.intent_bytes)

(* ------------------------------------------------------------------ *)
(* Arbitration                                                        *)
(* ------------------------------------------------------------------ *)

let test_priority_rotation_bijective () =
  List.iter
    (fun nthreads ->
      List.iter
        (fun round ->
          let seen = Array.make nthreads false in
          for tid = 0 to nthreads - 1 do
            let p = Kv.Validate.priority_of ~round ~nthreads tid in
            check_bool "in range" true (p >= 0 && p < nthreads);
            check_bool "no collision" false seen.(p);
            seen.(p) <- true;
            check_int "inverse" tid (Kv.Validate.tid_of_priority ~round ~nthreads p)
          done)
        [ 0; 1; 7; 12 ])
    [ 1; 2; 4; 5 ]

(* Each thread's intents in the wire format, padded to a full region
   with stale bytes, as a peer's [read_into] sees them. *)
let regions_of intents =
  Array.map
    (fun l ->
      let buf = Bytes.make Kv.Layout.intent_bytes '\255' in
      let enc = Kv.Intent.encode l in
      Bytes.blit enc 0 buf 0 (Bytes.length enc);
      buf)
    intents

(* One arbiter for every call in this file, as a worker keeps one for
   its whole run: a stale mark from an earlier round must never count. *)
let arbiter = Kv.Validate.create ()

(* The wire-format arbitration run once per thread, each as [self],
   with the verdict bit sets; [self] decides only its own batch. *)
let wire_arbitrate ~round ~nthreads intents =
  let regions = regions_of intents in
  Array.init nthreads (fun self -> Kv.Validate.arbitrate arbiter ~round ~nthreads ~self regions)

let wire_verdicts ~round ~nthreads intents =
  Array.map2
    (fun bits l -> Array.init (List.length l) (Kv.Validate.commits bits))
    (wire_arbitrate ~round ~nthreads intents)
    intents

let test_fold_conflict_semantics () =
  (* Two threads, same round.  At round 0 priority order is t0 < t1:
     t1's first txn writes key 5 which t0's committed txn also writes
     (abort), t1's second reads key 9 written by nobody (commit).  The
     wire-format arbitration and the list oracle must both say so. *)
  let r k = { Kv.Intent.key = k; len = 1; ver = 0 } in
  let intents =
    [|
      [ { Kv.Intent.seq = 0; reads = [ r 1 ]; writes = [ 5 ] } ];
      [
        { Kv.Intent.seq = 10; reads = [ r 2 ]; writes = [ 5 ] };
        { Kv.Intent.seq = 11; reads = [ r 9 ]; writes = [ 7 ] };
        (* Reading a key an earlier-committed txn wrote also aborts. *)
        { Kv.Intent.seq = 12; reads = [ r 5 ]; writes = [] };
      ];
    |]
  in
  List.iter
    (fun (name, fold) ->
      let v0 = fold ~round:0 ~nthreads:2 intents in
      check_bool (name ^ ": t0 commits") true v0.(0).(0);
      check_bool (name ^ ": t1 w-w conflict aborts") false v0.(1).(0);
      check_bool (name ^ ": t1 disjoint commits") true v0.(1).(1);
      check_bool (name ^ ": t1 r-w conflict aborts") false v0.(1).(2);
      (* Round 1 rotates priority: t1 goes first and wins the w-w race. *)
      let v1 = fold ~round:1 ~nthreads:2 intents in
      check_bool (name ^ ": rotated: t1 commits") true v1.(1).(0);
      check_bool (name ^ ": rotated: t0 aborts") false v1.(0).(0))
    [ ("wire", wire_verdicts); ("oracle", Validate_oracle.fold) ]

(* A round's published intents: up to a full batch per thread (empty
   batches included), transactions drawn at random or at the worst-case
   footprint ({!Kv.Txn.max_reads} ranges of 8 keys plus
   {!Kv.Txn.max_writes} writes).  Half the rounds draw keys from the
   first 24 only, so conflicts and overlapping ranges are common. *)
let gen_round =
  let open QCheck.Gen in
  let txn ~nkeys =
    let read_entry =
      int_range 1 8 >>= fun len ->
      map2 (fun key ver -> { Kv.Intent.key; len; ver }) (int_bound (nkeys - len)) (int_bound 0xFFFF)
    in
    let write_key = int_bound (nkeys - 1) in
    let shaped nr nw =
      map3
        (fun seq reads writes -> { Kv.Intent.seq; reads; writes })
        (int_bound 0xFF) (list_repeat nr read_entry) (list_repeat nw write_key)
    in
    frequency
      [
        (4, int_bound Kv.Txn.max_reads >>= fun nr -> int_bound Kv.Txn.max_writes >>= shaped nr);
        (1, shaped Kv.Txn.max_reads Kv.Txn.max_writes);
      ]
  in
  int_bound 63 >>= fun round ->
  int_range 1 32 >>= fun nthreads ->
  oneofl [ 24; Kv.Layout.n_keys ] >>= fun nkeys ->
  map
    (fun batches -> (round, nthreads, Array.of_list batches))
    (list_repeat nthreads (list_size (int_bound Kv.Service.batch) (txn ~nkeys)))

let print_round (round, nthreads, intents) =
  Printf.sprintf "round=%d nthreads=%d batches=[%s]" round nthreads
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l ->
               String.concat ","
                 (List.map
                    (fun (t : Kv.Intent.txn_intent) ->
                      Printf.sprintf "#%d r%s w%s" t.Kv.Intent.seq
                        (String.concat "/"
                           (List.map
                              (fun (r : Kv.Intent.read_entry) ->
                                Printf.sprintf "%d+%d" r.Kv.Intent.key r.Kv.Intent.len)
                              t.Kv.Intent.reads))
                        (String.concat "/" (List.map string_of_int t.Kv.Intent.writes)))
                    l))
             intents)))

let prop_wire_matches_oracle =
  (* Every thread takes every priority slot over the rounds, and each
     one arbitrates as [self]: its verdicts must be the oracle's for its
     own batch, with no bit set past the batch. *)
  QCheck.Test.make ~name:"wire arbitration gives every tid the oracle's verdicts" ~count:300
    (QCheck.make ~print:print_round gen_round)
    (fun (round, nthreads, intents) ->
      let oracle = Validate_oracle.fold ~round ~nthreads intents in
      let bits = wire_arbitrate ~round ~nthreads intents in
      Array.for_all Fun.id
        (Array.init nthreads (fun tid ->
             let n = Array.length oracle.(tid) in
             bits.(tid) lsr n = 0
             && Array.for_all Fun.id
                  (Array.init n (fun bi -> Kv.Validate.commits bits.(tid) bi = oracle.(tid).(bi))))))

(* ------------------------------------------------------------------ *)
(* Strict serializability (oracle)                                    *)
(* ------------------------------------------------------------------ *)

let probe_outcome ?(runtime = R.consequence_ic) ?(seed = 1) ?(nthreads = 4) ?requests shape =
  let program, outcome = Kv.Service.probe ?requests shape in
  ignore (R.run runtime ~seed ~nthreads program);
  outcome ()

let test_oracle_all_shapes () =
  List.iter
    (fun shape ->
      let o = probe_outcome shape in
      check_int
        (Kv.Traffic.name shape ^ " all requests completed")
        (o.Kv.Service.oc_nthreads * o.Kv.Service.oc_requests)
        (Kv.Oracle.completed o);
      (match Kv.Oracle.check o with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s not serializable: %s" (Kv.Traffic.name shape) m.Kv.Oracle.what);
      check_bool
        (Kv.Traffic.name shape ^ " snapshots never abort")
        false (Kv.Oracle.snapshot_aborts o))
    shapes

let test_oracle_detects_lost_update () =
  (* The oracle itself must not be vacuous: corrupt one completed
     update's observed read sum and it must object. *)
  let o = probe_outcome Kv.Traffic.Zipf in
  let corrupted =
    let bumped = ref false in
    List.map
      (fun (r : Kv.Service.record_) ->
        if (not !bumped) && r.Kv.Service.rc_txn.Kv.Txn.kind = Kv.Txn.Update then begin
          bumped := true;
          { r with Kv.Service.rc_read_sum = r.Kv.Service.rc_read_sum + 1 }
        end
        else r)
      o.Kv.Service.oc_records
  in
  check_bool "oracle rejects corrupted history" true
    (match Kv.Oracle.check { o with Kv.Service.oc_records = corrupted } with
    | Error _ -> true
    | Ok () -> false)

let prop_serializable =
  (* Sampled sweep: shape x thread count x request count x runtime
     (ic / rr alternate), all strictly serializable with no snapshot
     aborts. *)
  let gen =
    QCheck.Gen.(
      map3
        (fun shape nthreads (requests, rr) -> (shape, 1 + nthreads, 4 + requests, rr))
        (oneofl shapes) (int_bound 5)
        (pair (int_bound 20) bool))
  in
  let print (shape, nthreads, requests, rr) =
    Printf.sprintf "%s t=%d req=%d rt=%s" (Kv.Traffic.name shape) nthreads requests
      (if rr then "rr" else "ic")
  in
  QCheck.Test.make ~name:"every sampled run is strictly serializable" ~count:25
    (QCheck.make ~print gen)
    (fun (shape, nthreads, requests, rr) ->
      let runtime = if rr then R.consequence_rr else R.consequence_ic in
      let o = probe_outcome ~runtime ~nthreads ~requests shape in
      Kv.Oracle.completed o = nthreads * requests
      && Kv.Oracle.check o = Ok ()
      && not (Kv.Oracle.snapshot_aborts o))

(* ------------------------------------------------------------------ *)
(* Cross-runtime identity                                             *)
(* ------------------------------------------------------------------ *)

let seeds = [ 1; 7 ]

let run_one runtime ~seed shape =
  R.run runtime ~seed ~nthreads:4 ((Workload.Registry.find (Kv.Traffic.name shape)).program)

let aborts r = Obs.Metrics.counter_value r.Res.metrics "kv:aborts"
let commits r = Obs.Metrics.counter_value r.Res.metrics "kv:commits"

let test_outcomes_identical_across_all_runtimes () =
  (* Memory image, output trace and commit/abort counts must be
     byte-identical across every runtime — even the nondeterministic
     pthreads baseline — and every seed.  Only sync-order hashes (and
     timings) may differ between runtimes. *)
  let all_runtimes =
    [ R.pthreads; R.dthreads; R.dwc; R.consequence_rr; R.consequence_ic;
      R.Det Runtime.Config.consequence_pipe; R.Domains Runtime.Config.consequence_ic ]
  in
  List.iter
    (fun shape ->
      let reference = run_one R.consequence_ic ~seed:1 shape in
      List.iter
        (fun runtime ->
          List.iter
            (fun seed ->
              let r = run_one runtime ~seed shape in
              let ctx =
                Printf.sprintf "%s/%s seed=%d" (Kv.Traffic.name shape) (R.name runtime) seed
              in
              check_string (ctx ^ " mem") reference.Res.mem_hash r.Res.mem_hash;
              check_string (ctx ^ " out") reference.Res.output_hash r.Res.output_hash;
              check_int (ctx ^ " aborts") (aborts reference) (aborts r);
              check_int (ctx ^ " commits") (commits reference) (commits r))
            seeds)
        all_runtimes)
    shapes

let test_full_witness_identity_ic_pipe_domains () =
  (* The instruction-count family shares one deterministic schedule, so
     the complete witness (including sync order) is identical across the
     serial DES, the pipelined-commit DES and real multicore domains. *)
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          let base = Res.deterministic_witness (run_one R.consequence_ic ~seed shape) in
          List.iter
            (fun runtime ->
              check_string
                (Printf.sprintf "%s/%s seed=%d" (Kv.Traffic.name shape) (R.name runtime)
                   seed)
                base
                (Res.deterministic_witness (run_one runtime ~seed shape)))
            [ R.Det Runtime.Config.consequence_pipe; R.Domains Runtime.Config.consequence_ic ])
        seeds)
    shapes

let test_witness_seed_invariant_per_runtime () =
  List.iter
    (fun shape ->
      List.iter
        (fun runtime ->
          let w = List.map (fun seed -> Res.deterministic_witness (run_one runtime ~seed shape)) seeds in
          check_int
            (Printf.sprintf "%s/%s one witness across seeds" (Kv.Traffic.name shape)
               (R.name runtime))
            1
            (List.length (List.sort_uniq compare w)))
        [ R.dthreads; R.dwc; R.consequence_rr; R.consequence_ic ])
    shapes

(* Golden witnesses: 4 threads, seed 1.  The ic strings also pin pipe and
   domains (full-witness identity above); rr pins the round-robin token
   order.  Regenerate with:
     dune exec bin/consequence_cli.exe -- run <shape> -r {ic,rr} -t 4 -s 1 *)
let golden =
  [
    ("kv_uniform", "mem:f3957200e39a2ec0|sync:1e3876004cd86e85|out:91c6b054375636f2",
     "mem:f3957200e39a2ec0|sync:fee2e11a0b89e0d9|out:91c6b054375636f2");
    ("kv_zipf", "mem:9a44c034e70d1e30|sync:37b559de50208c2f|out:dfcbdd99c71dee29",
     "mem:9a44c034e70d1e30|sync:4c10bc9d4d42088b|out:dfcbdd99c71dee29");
    ("kv_hot", "mem:79b6d55b9ae1078a|sync:3ab79e68fc472387|out:a1c4922804e0d28e",
     "mem:79b6d55b9ae1078a|sync:6bd933eb51fc995b|out:a1c4922804e0d28e");
    ("kv_read", "mem:9e724ce5ccfb9be0|sync:465da9c8d7f12d99|out:758e8e527da14662",
     "mem:9e724ce5ccfb9be0|sync:a5bd1f7307317cd1|out:758e8e527da14662");
    ("kv_write", "mem:0eb49b7d7782cc24|sync:d93516ce46023be9|out:16a2b16c4f0a0ad7",
     "mem:0eb49b7d7782cc24|sync:6c9e3453beabe5e9|out:16a2b16c4f0a0ad7");
    ("kv_scan", "mem:d060cdfd9b53c115|sync:4269d3ee00f51171|out:16a37ad7ed610510",
     "mem:d060cdfd9b53c115|sync:fee2e11a0b89e0d9|out:16a37ad7ed610510");
  ]

let test_golden_witnesses () =
  List.iter
    (fun (name, ic_expected, rr_expected) ->
      let shape = List.find (fun s -> Kv.Traffic.name s = name) shapes in
      List.iter
        (fun (runtime, expected) ->
          List.iter
            (fun seed ->
              check_string
                (Printf.sprintf "%s/%s seed=%d" name (R.name runtime) seed)
                expected
                (Res.deterministic_witness (run_one runtime ~seed shape)))
            seeds)
        [
          (R.consequence_ic, ic_expected);
          (R.consequence_rr, rr_expected);
          (R.Det Runtime.Config.consequence_pipe, ic_expected);
          (R.Domains Runtime.Config.consequence_ic, ic_expected);
        ])
    golden

(* ------------------------------------------------------------------ *)
(* Latency accounting                                                 *)
(* ------------------------------------------------------------------ *)

let test_latency_histogram_counts_requests () =
  List.iter
    (fun shape ->
      let r = run_one R.consequence_ic ~seed:1 shape in
      let m = r.Res.metrics in
      let completed =
        Obs.Metrics.counter_value m "kv:commits" + Obs.Metrics.counter_value m "kv:snapshots"
      in
      check_int
        (Kv.Traffic.name shape ^ " every request completed")
        (4 * Kv.Service.default_requests)
        completed;
      match Obs.Metrics.find_hist m "kv:req_ns" with
      | None -> Alcotest.fail "kv:req_ns histogram missing"
      | Some h ->
          check_int (Kv.Traffic.name shape ^ " one latency sample per request") completed
            h.Obs.Metrics.count)
    shapes

(* OCaml allocates any block over 256 words (Max_young_wosize) directly
   in the major heap, and a 2 KiB intent-region buffer is 257 words with
   its padding.  A round's host path must stay clear of that: words
   allocated there directly are [major_words - promoted_words].  Before
   phase B read into worker-owned buffers, one 8-thread kv_scan run
   allocated about 119k such words under consequence-ic and 124k under
   pthreads.  The runtime folds a domain's allocation counters into
   [Gc.quick_stat] at a minor collection, so each reading forces one. *)
let direct_major_words f =
  Gc.minor ();
  let before = Gc.quick_stat () in
  f ();
  Gc.minor ();
  let after = Gc.quick_stat () in
  after.Gc.major_words -. after.Gc.promoted_words
  -. (before.Gc.major_words -. before.Gc.promoted_words)

let test_round_off_major_heap () =
  let program = (Workload.Registry.find "kv_scan").Workload.Registry.program in
  List.iter
    (fun runtime ->
      let words =
        direct_major_words (fun () -> ignore (R.run runtime ~seed:1 ~nthreads:8 program))
      in
      check_bool
        (Printf.sprintf "kv_scan/%s: %.0f words direct to the major heap (< 64k)" (R.name runtime)
           words)
        true (words < 65536.))
    [ R.consequence_ic; R.pthreads ]

let test_traffic_generation_deterministic () =
  (* Traffic depends only on (shape, tid): same list on every call, and
     every generated transaction passes the shape-independent checks. *)
  List.iter
    (fun shape ->
      List.iter
        (fun tid ->
          let a = Kv.Traffic.gen shape ~tid ~requests:40 in
          let b = Kv.Traffic.gen shape ~tid ~requests:40 in
          check_bool "same traffic" true (a = b);
          List.iter Kv.Txn.check a)
        [ 0; 3 ])
    shapes

let () =
  Alcotest.run "kv"
    [
      ( "layout+codec",
        [
          Alcotest.test_case "regions disjoint" `Quick test_layout_regions_disjoint;
          Alcotest.test_case "worst-case batch fits" `Quick test_intent_capacity;
          QCheck_alcotest.to_alcotest prop_intent_roundtrip;
        ] );
      ( "arbitration",
        [
          Alcotest.test_case "priority rotation bijective" `Quick
            test_priority_rotation_bijective;
          Alcotest.test_case "conflict semantics" `Quick test_fold_conflict_semantics;
          QCheck_alcotest.to_alcotest prop_wire_matches_oracle;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "oracle passes every shape" `Quick test_oracle_all_shapes;
          Alcotest.test_case "oracle detects lost updates" `Quick
            test_oracle_detects_lost_update;
          QCheck_alcotest.to_alcotest prop_serializable;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "outcomes identical across all runtimes" `Quick
            test_outcomes_identical_across_all_runtimes;
          Alcotest.test_case "full witness identity ic/pipe/domains" `Quick
            test_full_witness_identity_ic_pipe_domains;
          Alcotest.test_case "witness seed-invariant per runtime" `Quick
            test_witness_seed_invariant_per_runtime;
          Alcotest.test_case "golden witnesses" `Quick test_golden_witnesses;
        ] );
      ( "service",
        [
          Alcotest.test_case "latency histogram counts requests" `Quick
            test_latency_histogram_counts_requests;
          Alcotest.test_case "traffic generation deterministic" `Quick
            test_traffic_generation_deterministic;
          Alcotest.test_case "round stays off the major heap" `Quick test_round_off_major_heap;
        ] );
    ]

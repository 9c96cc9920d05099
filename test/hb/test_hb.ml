(* Tests for vector clocks and the LRC memory-propagation study. *)

module Vc = Hb.Vector_clock
module Lrc = Hb.Lrc_study
module Ev = Runtime.Rt_event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Pointwise order, as the race oracle in test/race writes it. *)
let leq a b = Vc.equal (Vc.join a b) b

(* ------------------------------------------------------------------ *)
(* Vector_clock                                                       *)
(* ------------------------------------------------------------------ *)

let test_vc_empty () =
  check_int "missing is 0" 0 (Vc.get Vc.empty 3);
  check_bool "empty <= empty" true (leq Vc.empty Vc.empty)

let test_vc_set_get () =
  let vc = Vc.set Vc.empty 2 5 in
  check_int "set" 5 (Vc.get vc 2);
  check_int "others 0" 0 (Vc.get vc 1)

let test_vc_monotone () =
  let vc = Vc.set Vc.empty 1 5 in
  let raised = try ignore (Vc.set vc 1 3); false with Invalid_argument _ -> true in
  check_bool "no backwards" true raised

let test_vc_join () =
  let a = Vc.set (Vc.set Vc.empty 0 3) 1 7 in
  let b = Vc.set (Vc.set Vc.empty 0 5) 2 2 in
  let j = Vc.join a b in
  check_int "max 0" 5 (Vc.get j 0);
  check_int "keeps 1" 7 (Vc.get j 1);
  check_int "keeps 2" 2 (Vc.get j 2)

let test_vc_leq () =
  let a = Vc.set Vc.empty 0 3 in
  let b = Vc.set (Vc.set Vc.empty 0 5) 1 1 in
  check_bool "a <= b" true (leq a b);
  check_bool "b not <= a" false (leq b a);
  check_bool "join upper bound" true (leq a (Vc.join a b) && leq b (Vc.join a b))

let prop_vc_join_commutative =
  let entries =
    QCheck.(list_of_size (QCheck.Gen.int_range 0 6) (pair (int_bound 4) (int_range 1 100)))
  in
  let build l = List.fold_left (fun vc (t, n) -> Vc.join vc (Vc.set Vc.empty t n)) Vc.empty l in
  QCheck.Test.make ~name:"vector-clock join is commutative and idempotent" ~count:200
    (QCheck.pair entries entries)
    (fun (la, lb) ->
      let a = build la and b = build lb in
      Vc.equal (Vc.join a b) (Vc.join b a) && Vc.equal (Vc.join a a) a)

(* ------------------------------------------------------------------ *)
(* Lrc tracker on hand-built event sequences                          *)
(* ------------------------------------------------------------------ *)

let commit tid pages = Ev.Commit { tid; version = 0; pages }
let release tid obj = Ev.Release { tid; obj }
let acquire tid obj = Ev.Acquire { tid; obj }

let run_events evs =
  let t = Lrc.create_tracker () in
  List.iter (Lrc.observer t) evs;
  t

let test_lrc_lock_handoff () =
  (* T0 writes pages 1,2 under a lock; T1 acquires the same lock: both
     pages propagate to T1 exactly once. *)
  let t =
    run_events
      [
        acquire 0 "m:0";
        commit 0 [ 1; 2 ];
        release 0 "m:0";
        acquire 1 "m:0";
      ]
  in
  check_int "two pages" 2 (Lrc.lrc_pages t);
  check_int "acquires" 2 (Lrc.acquires t)

let test_lrc_unrelated_lock_no_propagation () =
  (* T1 acquires a DIFFERENT lock: no happens-before edge, no pages. *)
  let t =
    run_events [ commit 0 [ 1; 2 ]; release 0 "m:0"; acquire 1 "m:9" ] in
  check_int "nothing propagated" 0 (Lrc.lrc_pages t)

let test_lrc_no_double_count () =
  (* A second acquire of the same lock without new writes moves nothing. *)
  let t =
    run_events
      [
        commit 0 [ 1 ];
        release 0 "m:0";
        acquire 1 "m:0";
        release 1 "m:0";
        acquire 1 "m:0";
      ]
  in
  check_int "page counted once" 1 (Lrc.lrc_pages t)

let test_lrc_chain () =
  (* T0 -> T1 via lock A, then T1 -> T2 via lock B: T0's page reaches T2
     transitively, counted once per receiving thread. *)
  let t =
    run_events
      [
        commit 0 [ 7 ];
        release 0 "m:A";
        acquire 1 "m:A";
        release 1 "m:B";
        acquire 2 "m:B";
      ]
  in
  check_int "page moved twice (to T1 and T2)" 2 (Lrc.lrc_pages t)

let test_lrc_own_pages_not_counted () =
  let t =
    run_events [ commit 0 [ 3 ]; release 0 "m:0"; acquire 0 "m:0" ] in
  check_int "own commit not propagated" 0 (Lrc.lrc_pages t)

let test_lrc_barrier_merges_everyone () =
  (* Two writers release at a barrier; both then acquire: each pulls the
     other's page (2 transfers), not its own. *)
  let t =
    run_events
      [
        commit 0 [ 1 ];
        commit 1 [ 2 ];
        release 0 "b:0";
        release 1 "b:0";
        acquire 0 "b:0";
        acquire 1 "b:0";
      ]
  in
  check_int "cross transfers only" 2 (Lrc.lrc_pages t)

let test_lrc_counts () =
  let t = run_events [ commit 0 [ 1; 2; 3 ]; commit 0 [ 1 ] ] in
  check_int "commits" 2 (Lrc.commits t);
  check_int "page updates" 4 (Lrc.page_updates t)

(* ------------------------------------------------------------------ *)
(* End-to-end study                                                   *)
(* ------------------------------------------------------------------ *)

let test_lrc_study_runs () =
  let program = (Workload.Registry.find "kmeans").Workload.Registry.program in
  let r = Lrc.run ~nthreads:4 program in
  check_bool "tso positive" true (r.Lrc.tso_pages > 0);
  check_bool "lrc positive" true (r.Lrc.lrc_pages > 0);
  check_bool "reduction sane" true (Lrc.reduction r <= 1.0)

let test_lrc_barrier_heavy_saves_little () =
  (* The paper's canneal observation: barriers leave almost nothing for
     LRC to save. *)
  let program = (Workload.Registry.find "canneal").Workload.Registry.program in
  let r = Lrc.run ~nthreads:4 program in
  check_bool "under 5%" true (Lrc.reduction r < 0.05)

let test_lrc_deterministic () =
  let program = (Workload.Registry.find "ferret").Workload.Registry.program in
  let r1 = Lrc.run ~seed:1 ~nthreads:4 program in
  let r2 = Lrc.run ~seed:99 ~nthreads:4 program in
  check_int "same lrc count" r1.Lrc.lrc_pages r2.Lrc.lrc_pages;
  check_int "same tso count" r1.Lrc.tso_pages r2.Lrc.tso_pages

let () =
  Alcotest.run "hb"
    [
      ( "vector-clock",
        [
          Alcotest.test_case "empty" `Quick test_vc_empty;
          Alcotest.test_case "set/get" `Quick test_vc_set_get;
          Alcotest.test_case "monotone" `Quick test_vc_monotone;
          Alcotest.test_case "join" `Quick test_vc_join;
          Alcotest.test_case "leq" `Quick test_vc_leq;
          QCheck_alcotest.to_alcotest prop_vc_join_commutative;
        ] );
      ( "lrc-tracker",
        [
          Alcotest.test_case "lock handoff" `Quick test_lrc_lock_handoff;
          Alcotest.test_case "unrelated lock" `Quick test_lrc_unrelated_lock_no_propagation;
          Alcotest.test_case "no double count" `Quick test_lrc_no_double_count;
          Alcotest.test_case "transitive chain" `Quick test_lrc_chain;
          Alcotest.test_case "own pages" `Quick test_lrc_own_pages_not_counted;
          Alcotest.test_case "barrier merge" `Quick test_lrc_barrier_merges_everyone;
          Alcotest.test_case "counters" `Quick test_lrc_counts;
        ] );
      ( "study",
        [
          Alcotest.test_case "runs" `Quick test_lrc_study_runs;
          Alcotest.test_case "barriers save little" `Quick test_lrc_barrier_heavy_saves_little;
          Alcotest.test_case "deterministic" `Quick test_lrc_deterministic;
        ] );
    ]

(* Tests for the race detector: synthetic verdicts, the bank regression,
   value-determinism of reports, and agreement with the full-vector
   oracle (full_vector_oracle.ml). *)

module Det = Race.Detector
module Rep = Race.Report
module Audit = Race.Audit
module Ev = Runtime.Rt_event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let conflict ?(page = 0) ?(first = 0) ?(last = 7) ~tid ~version ~loser_tid ~loser_version () =
  Ev.Conflict
    { tid; version; page; first_byte = first; last_byte = last; loser_tid; loser_version }

let feed events =
  let det = Det.create () in
  List.iter (Det.observer det) events;
  det

let verdicts det = List.map (fun f -> f.Det.verdict) (Det.findings det)

(* ------------------------------------------------------------------ *)
(* Synthetic streams                                                  *)
(* ------------------------------------------------------------------ *)

let test_sync_ordered () =
  (* t1 releases m (publishing epoch 1); t2 acquires m, then merges over
     bytes from t1's epoch-1 chunk: the lock ordered the chunks. *)
  let det =
    feed
      [
        Ev.Commit { tid = 1; version = 1; pages = [ 0 ] };
        Ev.Release { tid = 1; obj = "m:0" };
        Ev.Acquire { tid = 2; obj = "m:0" };
        conflict ~tid:2 ~version:2 ~loser_tid:1 ~loser_version:1 ();
        Ev.Commit { tid = 2; version = 2; pages = [ 0 ] };
      ]
  in
  check_int "one conflict" 1 (Det.conflicts det);
  check_int "sync ordered" 1 (Det.sync_ordered det);
  check_int "no races" 0 (Det.racy det)

let test_racy () =
  (* Same merge without any synchronization: concurrent chunks. *)
  let det =
    feed
      [
        Ev.Commit { tid = 1; version = 1; pages = [ 0 ] };
        conflict ~tid:2 ~version:2 ~loser_tid:1 ~loser_version:1 ();
        Ev.Commit { tid = 2; version = 2; pages = [ 0 ] };
      ]
  in
  check_int "racy" 1 (Det.racy det);
  check_int "not ordered" 0 (Det.sync_ordered det)

let test_later_release_orders () =
  (* A release AFTER the loser's chunk start also orders it: t1 writes
     in epoch 1, releases twice, and t2 only acquires the second lock —
     the winner's component (2) still dominates the stamp (1). *)
  let det =
    feed
      [
        Ev.Release { tid = 1; obj = "m:0" };
        Ev.Release { tid = 1; obj = "m:1" };
        Ev.Acquire { tid = 2; obj = "m:1" };
        conflict ~tid:2 ~version:2 ~loser_tid:1 ~loser_version:1 ();
      ]
  in
  check_int "later release still orders" 1 (Det.sync_ordered det);
  check_int "no races" 0 (Det.racy det)

let test_unpublished_epoch_racy () =
  (* The stamp names a release the winner never saw: epoch 1 was
     acquired, epoch 2 only exists as a stamp (the loser's chunk started
     after its first release). *)
  let events epoch =
    [
      Ev.Release { tid = 1; obj = "m:0" };
      Ev.Acquire { tid = 2; obj = "m:0" };
      conflict ~tid:2 ~version:1 ~loser_tid:1 ~loser_version:epoch ();
    ]
  in
  check_int "published epoch ordered" 1 (Det.sync_ordered (feed (events 1)));
  check_int "unpublished epoch racy" 1 (Det.racy (feed (events 2)))

let test_transitive_order () =
  (* t1 -> t2 -> t3 through two different locks: still ordered. *)
  let det =
    feed
      [
        Ev.Commit { tid = 1; version = 1; pages = [ 0 ] };
        Ev.Release { tid = 1; obj = "m:0" };
        Ev.Acquire { tid = 2; obj = "m:0" };
        Ev.Release { tid = 2; obj = "m:1" };
        Ev.Acquire { tid = 3; obj = "m:1" };
        conflict ~tid:3 ~version:2 ~loser_tid:1 ~loser_version:1 ();
        Ev.Commit { tid = 3; version = 2; pages = [ 0 ] };
      ]
  in
  check_int "transitively ordered" 1 (Det.sync_ordered det)

let test_report_rendering () =
  let det =
    feed
      [
        Ev.Commit { tid = 1; version = 1; pages = [ 0 ] };
        conflict ~tid:2 ~version:2 ~loser_tid:1 ~loser_version:1 ();
        Ev.Commit { tid = 2; version = 2; pages = [ 0 ] };
      ]
  in
  let r = Rep.of_detector ~workload:"synthetic" ~runtime:"none" ~nthreads:2 det in
  check_int "report racy" 1 r.Rep.racy;
  check_bool "samples mention the conflict" true
    (List.exists (fun s -> String.length s > 0) r.Rep.samples);
  let rendered = Rep.to_string r in
  check_bool "render mentions workload" true
    (Astring.String.is_infix ~affix:"synthetic" rendered);
  (match Obs.Json.parse (Obs.Json.to_string (Rep.to_json r)) with
  | Ok j ->
      check_int "json racy" 1
        (Option.value ~default:(-1) Obs.Json.(Option.bind (member "racy" j) to_int_opt))
  | Error e -> Alcotest.failf "json reparse: %s" e)

(* ------------------------------------------------------------------ *)
(* Bank regression (satellite)                                        *)
(* ------------------------------------------------------------------ *)

let det_runtimes =
  [ Runtime.Run.dthreads; Runtime.Run.dwc; Runtime.Run.consequence_rr; Runtime.Run.consequence_ic ]

let test_bank_race_reported () =
  List.iter
    (fun rt ->
      let report, _ = Audit.run ~seed:1 ~nthreads:8 rt Workload.Bank.racy in
      check_bool
        (Printf.sprintf "bank-racy reports races under %s" (Runtime.Run.name rt))
        true
        (report.Rep.racy > 0))
    det_runtimes

let test_bank_fixed_clean () =
  List.iter
    (fun rt ->
      List.iter
        (fun program ->
          let report, _ = Audit.run ~seed:1 ~nthreads:8 rt program in
          check_int
            (Printf.sprintf "%s audits clean under %s" program.Api.name (Runtime.Run.name rt))
            0 report.Rep.racy)
        [ Workload.Bank.locked; Workload.Bank.atomic ])
    (det_runtimes @ [ Runtime.Run.pthreads ])

(* ------------------------------------------------------------------ *)
(* Value-determinism (acceptance criterion)                           *)
(* ------------------------------------------------------------------ *)

let all_programs =
  List.map (fun e -> e.Workload.Registry.program) Workload.Registry.all
  @ [ Workload.Bank.racy; Workload.Bank.locked; Workload.Bank.atomic ]

let test_reports_deterministic () =
  let jobs =
    List.concat_map (fun p -> List.map (fun rt -> (p, rt)) det_runtimes) all_programs
  in
  let results =
    Sim.Par.map_list
      (fun (p, rt) ->
        (p.Api.name, Runtime.Run.name rt,
         Audit.stable_across_seeds ~nthreads:2 ~seeds:[ 1; 2; 42 ] rt p))
      jobs
  in
  List.iter
    (fun (wl, rt, stable) ->
      check_bool (Printf.sprintf "%s report stable across seeds under %s" wl rt) true stable)
    results

let test_pthreads_conflicts_vary () =
  (* The foil: under pthreads a racy workload's conflict counts must
     move with the seed, or the determinism above would be vacuous.
     reverse_index has seed-sensitive racy merges. *)
  let p = (Workload.Registry.find "reverse_index").Workload.Registry.program in
  let counts =
    List.map
      (fun seed ->
        let r, _ = Audit.run ~seed ~nthreads:4 Runtime.Run.pthreads p in
        (r.Rep.conflicts, r.Rep.racy))
      [ 1; 2; 3; 5 ]
  in
  check_bool "seed-varying pthreads conflict counts" true
    (List.length (List.sort_uniq compare counts) > 1)

(* ------------------------------------------------------------------ *)
(* Epoch shortcut vs the full-vector oracle                           *)
(* ------------------------------------------------------------------ *)

let prop_race_epoch_agrees_with_oracle =
  (* Random synchronization streams over 4 threads and 3 objects, with
     conflicts stamped near the loser's current release count (some
     beyond it, i.e. unpublished): the O(1) epoch verdict must match the
     full-vector release-history scan on every finding. *)
  let op =
    QCheck.(
      oneof
        [
          map (fun (t, o) -> `Rel (t, o)) (pair (int_bound 3) (int_bound 2));
          map (fun (t, o) -> `Acq (t, o)) (pair (int_bound 3) (int_bound 2));
          map
            (fun (w, (l, off)) -> `Confl (w, l, off))
            (pair (int_bound 3) (pair (int_bound 3) (int_range (-2) 2)));
        ])
  in
  let stream = QCheck.(list_of_size (QCheck.Gen.int_range 0 40) op) in
  QCheck.Test.make ~name:"race: epoch verdicts agree with full-vector oracle" ~count:500 stream
    (fun ops ->
      let released = Array.make 4 0 in
      let events =
        List.filter_map
          (function
            | `Rel (t, o) ->
                released.(t) <- released.(t) + 1;
                Some (Ev.Release { tid = t; obj = "m:" ^ string_of_int o })
            | `Acq (t, o) -> Some (Ev.Acquire { tid = t; obj = "m:" ^ string_of_int o })
            | `Confl (w, l, off) ->
                if w = l then None
                else
                  Some
                    (Ev.Conflict
                       {
                         tid = w;
                         version = 0;
                         page = 0;
                         first_byte = 0;
                         last_byte = 7;
                         loser_tid = l;
                         loser_version = max 1 (released.(l) + off);
                       }))
          ops
      in
      let oracle = Full_vector_oracle.create () in
      List.iter (Full_vector_oracle.observer oracle) events;
      verdicts (feed events) = Full_vector_oracle.verdicts oracle)

(* The same agreement over the streams of recorded runs. *)
let test_modes_agree_on_runs () =
  List.iter
    (fun (rt, p) ->
      let det = Det.create () and oracle = Full_vector_oracle.create () in
      let observer ev =
        Det.observer det ev;
        Full_vector_oracle.observer oracle ev
      in
      ignore (Runtime.Run.run rt ~seed:1 ~nthreads:4 ~observer p);
      check_bool
        (Printf.sprintf "oracle agrees on %s under %s" p.Api.name (Runtime.Run.name rt))
        true
        (verdicts det = Full_vector_oracle.verdicts oracle))
    [
      (Runtime.Run.consequence_ic, Workload.Bank.racy);
      (Runtime.Run.consequence_ic, Workload.Bank.locked);
      (Runtime.Run.dwc, Workload.Bank.racy);
      (Runtime.Run.pthreads, Workload.Bank.racy);
      (Runtime.Run.consequence_ic, (Workload.Registry.find "canneal").Workload.Registry.program);
    ]

let () =
  Alcotest.run "race"
    [
      ( "detector",
        [
          Alcotest.test_case "sync ordered" `Quick test_sync_ordered;
          Alcotest.test_case "racy" `Quick test_racy;
          Alcotest.test_case "later release orders" `Quick test_later_release_orders;
          Alcotest.test_case "unpublished epoch racy" `Quick test_unpublished_epoch_racy;
          Alcotest.test_case "transitive order" `Quick test_transitive_order;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          QCheck_alcotest.to_alcotest prop_race_epoch_agrees_with_oracle;
        ] );
      ( "bank",
        [
          Alcotest.test_case "race reported" `Quick test_bank_race_reported;
          Alcotest.test_case "fixed variants clean" `Quick test_bank_fixed_clean;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "reports stable across seeds" `Slow test_reports_deterministic;
          Alcotest.test_case "pthreads conflicts vary" `Quick test_pthreads_conflicts_vary;
          Alcotest.test_case "epoch agrees with full vector" `Quick test_modes_agree_on_runs;
        ] );
    ]

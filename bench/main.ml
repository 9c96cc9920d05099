(* Benchmark harness: regenerates every data figure of the paper
   (Figs 10-16), the determinism and TSO reports, and a set of Bechamel
   microbenchmarks of the core primitives.

   Usage:
     bench/main.exe                 run everything (quick sweeps)
     bench/main.exe all             same (explicit alias)
     bench/main.exe full            run everything with the full thread sweep
     bench/main.exe fig10 fig14     run selected sections
     bench/main.exe -j 4 all        fan the sweeps over 4 domains
   Sections: fig10 fig11 fig12 fig13 fig14 fig15 fig16 determinism tso
   races climit soundness locking chunking micro sched replay profile
   commit domains kv autotune.

   [--baseline DIR] compares fresh section dumps against DIR; adding
   [--fail-on-regress PCT] turns numeric-leaf drift beyond PCT percent
   into a non-zero exit (missing or unparseable baselines still skip).

   [-j N] sets the worker-domain count for the figure sweeps (0 = one
   per recommended domain); results are gathered in input order, so the
   output is byte-identical to a sequential run.  [--quick] is accepted
   as an explicit synonym of the default sweep. *)

let quick_threads = [ 2; 4; 8; 16 ]
let full_threads = [ 2; 4; 8; 16; 32 ]

let section_names =
  [
    "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "determinism"; "tso";
    "races"; "climit"; "soundness"; "locking"; "chunking"; "micro"; "sched"; "replay";
    "profile"; "commit"; "domains"; "kv"; "autotune";
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core data structures               *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let page_size = 256 in
  let seg_commit =
    Test.make ~name:"segment: commit 8 pages + read back"
      (Staged.stage (fun () ->
           let seg = Vmem.Segment.create ~pages:16 ~page_size () in
           let pages = List.init 8 (fun i -> (i, Vmem.Page.create ~size:page_size)) in
           let v = Vmem.Segment.commit seg ~committer:0 ~pages in
           ignore (Vmem.Segment.read_page seg ~version:v 3)))
  in
  let ws_cycle =
    Test.make ~name:"workspace: write / commit / update cycle"
      (Staged.stage
         (let seg = Vmem.Segment.create ~pages:16 ~page_size () in
          let ws = Vmem.Workspace.create seg ~tid:0 in
          let buf = Bytes.make 64 'x' in
          fun () ->
            Vmem.Workspace.write ws ~addr:128 buf;
            ignore (Vmem.Workspace.commit ws);
            ignore (Vmem.Workspace.update ws)))
  in
  let page_merge =
    Test.make ~name:"page: byte merge (256 B)"
      (Staged.stage
         (let twin = Vmem.Page.create ~size:page_size in
          let local = Bytes.make page_size 'y' in
          let target = Vmem.Page.create ~size:page_size in
          fun () -> ignore (Vmem.Page.merge_into ~twin ~local ~target)))
  in
  let page_merge_sparse =
    (* The realistic shape: a 4 KiB page where the thread changed a
       handful of scattered bytes.  The word-level scan skips the
       untouched 99% without byte-by-byte comparison. *)
    Test.make ~name:"page: byte merge (4 KiB, 16 changed bytes)"
      (Staged.stage
         (let twin = Vmem.Page.create ~size:4096 in
          let local = Vmem.Page.copy twin in
          for k = 0 to 15 do
            Bytes.set local (k * 251) 'y'
          done;
          let target = Vmem.Page.create ~size:4096 in
          fun () -> ignore (Vmem.Page.merge_into ~twin ~local ~target)))
  in
  let seg_commit_deep =
    (* Commit against a segment whose pages already carry a 1000-version
       history: the case the offset-array page histories optimize.  The
       assoc-list representation walked (and re-sorted) the whole
       history on every touch. *)
    Test.make ~name:"segment: commit + read back (1000-version history)"
      (Staged.stage
         (let seg = Vmem.Segment.create ~pages:16 ~page_size () in
          let page = Vmem.Page.create ~size:page_size in
          for v = 1 to 1000 do
            Bytes.set page 0 (Char.chr (v land 0xff));
            ignore
              (Vmem.Segment.commit seg ~committer:0
                 ~pages:[ (3, Vmem.Page.copy page) ])
          done;
          fun () ->
            let v =
              Vmem.Segment.commit seg ~committer:0
                ~pages:[ (3, Vmem.Page.copy page) ]
            in
            ignore (Vmem.Segment.read_page seg ~version:v 3)))
  in
  let seg_gc_sweep =
    (* The collector's steady state when it keeps up: 512 pages hold one
       snapshot each and 4 hold a second one above min_base, so every
       call sweeps a full cycle and reclaims nothing.  Only the 4
       multi-version pages are visited, so the cost tracks them, not the
       512. *)
    Test.make ~name:"segment: budgeted gc sweep (512 pages, 4 multi-version)"
      (Staged.stage
         (let pages = 512 in
          let seg = Vmem.Segment.create ~pages ~page_size () in
          ignore
            (Vmem.Segment.commit seg ~committer:0
               ~pages:(List.init pages (fun i -> (i, Vmem.Page.create ~size:page_size))));
          ignore
            (Vmem.Segment.commit seg ~committer:0
               ~pages:(List.map (fun i -> (i, Vmem.Page.create ~size:page_size)) [ 7; 130; 300; 511 ]));
          fun () -> ignore (Vmem.Segment.gc seg ~min_base:1 ~budget:16)))
  in
  let ws_update =
    (* A reader holding 1,024 resident pages updates past one remote
       commit of one page.  Update visits the pages committed since its
       base, so its cost follows the window (1 page), not the resident
       set.  Each iteration also pays the writer's fault, commit and
       update and a GC call that keeps the page's history at one
       snapshot. *)
    Test.make ~name:"workspace: update past a 1-page remote commit (1,024 resident pages)"
      (Staged.stage
         (let pages = 1024 in
          let seg = Vmem.Segment.create ~pages ~page_size () in
          let reader = Vmem.Workspace.create seg ~tid:0 in
          let writer = Vmem.Workspace.create seg ~tid:1 in
          for p = 0 to pages - 1 do
            Vmem.Workspace.write_int reader ~addr:(p * page_size) 1
          done;
          ignore (Vmem.Workspace.commit reader);
          ignore (Vmem.Workspace.update writer);
          let n = ref 0 in
          fun () ->
            incr n;
            Vmem.Workspace.write_int writer ~addr:(512 * page_size) !n;
            ignore (Vmem.Workspace.commit writer);
            ignore (Vmem.Workspace.update writer);
            ignore (Vmem.Workspace.update reader);
            ignore
              (Vmem.Segment.gc seg ~min_base:(Vmem.Segment.current_version seg) ~budget:1)))
  in
  let ws_read64 =
    Test.make ~name:"workspace: read_int64 (single-page fast path)"
      (Staged.stage
         (let seg = Vmem.Segment.create ~pages:16 ~page_size () in
          let ws = Vmem.Workspace.create seg ~tid:0 in
          Vmem.Workspace.write_int64 ws ~addr:128 42L;
          fun () -> ignore (Vmem.Workspace.read_int64 ws ~addr:128)))
  in
  (* A kv intent region: 8 pages of 256 bytes, half of them resident in
     the workspace and half read from the base snapshot.  [read]'s
     2 KiB result is 257 words, over OCaml's 256-word minor-heap limit,
     so every call allocates in the major heap; [read_into] fills one
     buffer kept across calls. *)
  let region_ws () =
    let seg = Vmem.Segment.create ~pages:16 ~page_size () in
    let ws = Vmem.Workspace.create seg ~tid:0 in
    for p = 0 to 3 do
      Vmem.Workspace.write_int ws ~addr:(p * page_size) p
    done;
    ws
  in
  let ws_read_region =
    Test.make ~name:"workspace: read 2 KiB (8 pages)"
      (Staged.stage
         (let ws = region_ws () in
          fun () -> ignore (Vmem.Workspace.read ws ~addr:0 ~len:(8 * page_size))))
  in
  let ws_read_into_region =
    Test.make ~name:"workspace: read_into 2 KiB (8 pages)"
      (Staged.stage
         (let ws = region_ws () and buf = Bytes.create (8 * page_size) in
          fun () -> Vmem.Workspace.read_into ws ~addr:0 buf))
  in
  let heap_ops =
    Test.make ~name:"event heap: 256 push + pop"
      (Staged.stage (fun () ->
           let h = Sim.Heap.create () in
           for i = 0 to 255 do
             Sim.Heap.push h ~key:(i * 7 mod 64) i
           done;
           while not (Sim.Heap.is_empty h) do
             ignore (Sim.Heap.pop h)
           done))
  in
  let gmic =
    Test.make ~name:"logical clock: gmic over 32 threads"
      (Staged.stage
         (let clocks = Detclock.Logical_clock.create () in
          let handles = List.init 32 (fun tid -> Detclock.Logical_clock.register clocks ~tid) in
          List.iteri (fun i c -> Detclock.Logical_clock.tick c (i * 97)) handles;
          fun () -> ignore (Detclock.Logical_clock.gmic clocks)))
  in
  let fnv =
    Test.make ~name:"fnv: hash one page"
      (Staged.stage
         (let page = Bytes.make page_size 'z' in
          fun () -> ignore (Sim.Fnv.bytes Sim.Fnv.init page)))
  in
  let fnv_sparse =
    (* The common page shape in a memory image: a few live words in a
       zero page.  Zero words fold as one multiply each. *)
    Test.make ~name:"fnv: hash one mostly-zero page"
      (Staged.stage
         (let page = Bytes.make page_size '\000' in
          List.iter (fun i -> Bytes.set page i 'z') [ 0; 1; 37; 128; 255 ];
          fun () -> ignore (Sim.Fnv.bytes Sim.Fnv.init page)))
  in
  let end_to_end =
    Test.make ~name:"runtime: full consequence-ic run (locked counter, 4 threads)"
      (Staged.stage
         (let program =
            Api.make ~name:"bench-prog" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
                let workers =
                  List.init nthreads (fun _ ->
                      ops.Api.spawn (fun w ->
                          for _ = 1 to 5 do
                            w.Api.work 2_000;
                            w.Api.lock 1;
                            w.Api.write_int ~addr:0 (w.Api.read_int ~addr:0 + 1);
                            w.Api.unlock 1
                          done))
                in
                List.iter ops.Api.join workers)
          in
          fun () ->
            ignore (Runtime.Det_rt.run Runtime.Config.consequence_ic ~seed:1 ~nthreads:4 program)))
  in
  let label_span =
    Test.make ~name:"label: commit:v<n> span name"
      (Staged.stage
         (let v = ref 0 in
          fun () ->
            v := (!v + 1) land 0xffff;
            ignore (Sys.opaque_identity (Obs.Label.int "commit:v" !v))))
  in
  let label_interned =
    Test.make ~name:"label: interned object name"
      (Staged.stage
         (let id = ref 0 in
          fun () ->
            id := (!id + 1) land 63;
            ignore (Sys.opaque_identity (Runtime.Rt_event.obj_mutex !id))))
  in
  let profile_path =
    (* One program of the ledger's profile-ic pass: the tracer and the
       profile collector on the sink, an observer that keeps every event
       and feeds the profile's spawn edges, then [Profile.finish]. *)
    Test.make ~name:"profile path: one traced and observed kmeans run (8 threads)"
      (Staged.stage
         (let program = (Workload.Registry.find "kmeans").Workload.Registry.program in
          fun () ->
            let col = Prof.Profile.create () in
            let events = ref [] in
            let r =
              Runtime.Det_rt.run Runtime.Config.consequence_ic ~seed:1 ~nthreads:8
                ~obs:(Obs.Sink.tee (Obs.Tracer.sink (Obs.Tracer.create ())) (Prof.Profile.sink col))
                ~observer:(fun ev ->
                  events := ev :: !events;
                  Prof.Profile.observer col ev)
                program
            in
            ignore (Prof.Profile.finish col ~wall_ns:r.Stats.Run_result.wall_ns)))
  in
  (* 10k intervals shaped like a runtime's: eight threads in turn, each
     continuing where its last interval ended, a new chunk every eight
     of a thread's intervals and a waker on one in five. *)
  let intervals =
    Array.init 10_000 (fun i ->
        let tid = i mod 8 and k = i / 8 in
        {
          Obs.Thread_state.stid = tid;
          state = Obs.Thread_state.of_index (k mod Obs.Thread_state.n);
          t0 = 1_000 * k;
          t1 = 1_000 * (k + 1);
          chunk = k / 8;
          waker = (if k mod 5 = 0 then (tid + 1) mod 8 else -1);
        })
  in
  let log_push =
    Test.make ~name:"interval log: push 10k intervals"
      (Staged.stage (fun () ->
           let log = Obs.Interval_log.create () in
           Array.iter (Obs.Interval_log.push log) intervals;
           ignore (Sys.opaque_identity log)))
  in
  let log_decode =
    Test.make ~name:"interval log: decode 10k intervals"
      (Staged.stage
         (let log = Obs.Interval_log.create () in
          Array.iter (Obs.Interval_log.push log) intervals;
          let v = Obs.Interval_log.view log in
          fun () ->
            let n = ref 0 in
            Obs.Interval_log.iter (fun iv -> n := !n + iv.Obs.Thread_state.chunk) v;
            ignore (Sys.opaque_identity !n)))
  in
  [
    seg_commit; seg_commit_deep; seg_gc_sweep; ws_cycle; ws_update; ws_read64; ws_read_region;
    ws_read_into_region; page_merge; page_merge_sparse; heap_ops; gmic; fnv; fnv_sparse;
    end_to_end; label_span; label_interned; profile_path; log_push; log_decode;
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler fast-path microbenchmarks                                *)
(* ------------------------------------------------------------------ *)

let sched_tests () =
  let open Bechamel in
  let module Lc = Detclock.Logical_clock in
  let module Tok = Detclock.Token in
  let token_cycle =
    (* The no-contention fast path a thread takes at every sync op when
       nobody else wants the token: waitq insert/remove, the O(1)
       eligibility read, poke. *)
    Test.make ~name:"token: uncontended acquire + release cycle"
      (Staged.stage
         (let eng = Sim.Engine.create ~seed:1 () in
          let clocks = Lc.create () in
          let c = Lc.register clocks ~tid:0 in
          let token = Tok.create (Sim.Exec.of_engine eng) clocks in
          fun () ->
            Lc.tick c 1;
            Tok.wait token ~tid:0;
            Tok.release token ~tid:0))
  in
  let token_handoff =
    (* Full handoff machinery under contention: block, direct-handoff
       wakeup, engine due-now dispatch. *)
    Test.make ~name:"token: contended handoff (4 threads x 16 transfers)"
      (Staged.stage (fun () ->
           let eng = Sim.Engine.create ~seed:1 () in
           let clocks = Lc.create () in
           let token = Tok.create (Sim.Exec.of_engine eng) clocks in
           for tid = 0 to 3 do
             ignore
               (Sim.Engine.spawn eng ~name:"t" (fun () ->
                    let c = Lc.register clocks ~tid in
                    for _ = 1 to 16 do
                      Lc.tick c 100;
                      Tok.poke token;
                      Tok.wait token ~tid;
                      Sim.Engine.advance eng 10;
                      Tok.release token ~tid
                    done;
                    Lc.finish c;
                    Tok.poke token))
           done;
           Sim.Engine.run eng))
  in
  let gmic_at n =
    (* The point of the incremental index: the query must stay flat as
       the thread count grows. *)
    Test.make ~name:(Printf.sprintf "gmic query: %d threads" n)
      (Staged.stage
         (let clocks = Lc.create () in
          let handles = List.init n (fun tid -> Lc.register clocks ~tid) in
          List.iteri (fun i c -> Lc.tick c (i * 97)) handles;
          fun () -> ignore (Lc.gmic_tid clocks)))
  in
  let heap_typed =
    Test.make ~name:"event heap: 256 push + pop_min (reused arrays)"
      (Staged.stage
         (let h = Sim.Heap.create () in
          fun () ->
            for i = 0 to 255 do
              Sim.Heap.push h ~key:(i * 7 mod 64) i
            done;
            while not (Sim.Heap.is_empty h) do
              ignore (Sim.Heap.pop_min_exn h)
            done))
  in
  [
    token_cycle; token_handoff; gmic_at 2; gmic_at 8; gmic_at 32; gmic_at 64; gmic_at 128;
    gmic_at 256; heap_typed;
  ]

(* ------------------------------------------------------------------ *)
(* Record/replay microbenchmarks                                      *)
(* ------------------------------------------------------------------ *)

(* Single thread, 1000 lock/write/unlock rounds: every round is a sync
   op, so the run commits at depth 1000 — the worst case for per-commit
   recording (Commit + Commit_hash per round).  Comparing the untracked
   and recording runs isolates the observer cost; the scripted replay
   adds the checker walk on top. *)
let depth1000_commit =
  Api.make ~name:"micro-replay" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let w =
        ops.Api.spawn (fun w ->
            for _ = 1 to 1000 do
              w.Api.work 200;
              w.Api.lock 1;
              w.Api.write_int ~addr:0 (w.Api.read_int ~addr:0 + 1);
              w.Api.unlock 1
            done)
      in
      ops.Api.join w)

let replay_tests () =
  let open Bechamel in
  let bare =
    Test.make ~name:"replay: depth-1000 commit run (untracked)"
      (Staged.stage (fun () ->
           ignore
             (Runtime.Det_rt.run Runtime.Config.consequence_ic ~seed:1 ~nthreads:1
                depth1000_commit)))
  in
  let recording =
    Test.make ~name:"replay: depth-1000 commit run (recording)"
      (Staged.stage (fun () ->
           ignore
             (Replay.Schedule.record Runtime.Run.consequence_ic ~seed:1 ~nthreads:1
                depth1000_commit)))
  in
  let replaying =
    Test.make ~name:"replay: depth-1000 commit replay (checked)"
      (Staged.stage
         (let log, _ =
            Replay.Schedule.record Runtime.Run.consequence_ic ~seed:1 ~nthreads:1
              depth1000_commit
          in
          fun () -> ignore (Replay.Replayer.replay log depth1000_commit)))
  in
  [ bare; recording; replaying ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver shared by the micro and sched sections             *)
(* ------------------------------------------------------------------ *)

let run_bechamel ~id ~title tests =
  let open Bechamel in
  Printf.printf "=== %s: %s ===\n" id title;
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              estimates := (name, est) :: !estimates;
              Printf.printf "%-55s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-55s (no estimate)\n%!" name)
        analyzed)
    tests;
  print_newline ();
  Obs.Json.Obj
    [
      ("id", Obs.Json.String id);
      ("title", Obs.Json.String title);
      ( "estimates_ns_per_run",
        Obs.Json.Obj
          (List.rev_map (fun (name, est) -> (name, Obs.Json.Float est)) !estimates) );
    ]

let run_micro () =
  run_bechamel ~id:"micro" ~title:"Bechamel microbenchmarks of the core primitives"
    (micro_tests ())

let run_sched () =
  run_bechamel ~id:"sched" ~title:"Scheduler fast-path microbenchmarks" (sched_tests ())

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                *)
(* ------------------------------------------------------------------ *)

(* [--baseline DIR] compares each freshly written BENCH_<section>.json
   against DIR/BENCH_<section>.json, leaf by numeric leaf.  The
   comparison is tolerant by construction: a missing, unreadable or
   unparseable baseline — the normal state of a young trajectory — is
   reported as skipped, never as a failure.  By default no amount of
   drift changes the exit code either; [--fail-on-regress PCT] opts in
   to failing the run (exit 1, after all sections finish) when any
   compared numeric leaf drifted by more than PCT percent. *)

let baseline_dir = ref None
let fail_on_regress : float option ref = ref None
let regressions : (string * string * float * float * float) list ref = ref []

(* Flatten to (path, value) numeric leaves: "a.b[3].c" -> 4.2.  Table
   cells serialize as strings, so numeric-looking strings (including
   "1.210x" speedups) count too. *)
let rec num_leaves prefix json acc =
  match json with
  | Obs.Json.Int i -> (prefix, float_of_int i) :: acc
  | Obs.Json.Float f -> (prefix, f) :: acc
  | Obs.Json.String s -> (
      let s =
        if String.length s > 1 && s.[String.length s - 1] = 'x' then
          String.sub s 0 (String.length s - 1)
        else s
      in
      match float_of_string_opt s with
      | Some f -> (prefix, f) :: acc
      | None -> acc)
  | Obs.Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          num_leaves (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc kvs
  | Obs.Json.List l ->
      List.fold_left
        (fun (i, acc) v -> (i + 1, num_leaves (Printf.sprintf "%s[%d]" prefix i) v acc))
        (0, acc) l
      |> snd
  | _ -> acc

let compare_with_baseline ~dir section fresh =
  let file = Filename.concat dir (Printf.sprintf "BENCH_%s.json" section) in
  let contents =
    try
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
    with Sys_error _ | End_of_file -> None
  in
  match contents with
  | None -> Printf.printf "[%s: no baseline at %s (skipped)]\n" section file
  | Some s -> (
      match Obs.Json.parse s with
      | Error e -> Printf.printf "[%s: unparseable baseline %s: %s (skipped)]\n" section file e
      | Ok old ->
          let old_leaves = num_leaves "" old [] in
          let fresh_leaves = num_leaves "" fresh [] in
          let old_tbl = Hashtbl.create (List.length old_leaves) in
          List.iter (fun (p, v) -> Hashtbl.replace old_tbl p v) old_leaves;
          let compared = ref 0 and drifted = ref [] in
          List.iter
            (fun (p, v) ->
              (* the top-level wall_ns is the harness's real measurement
                 time, not a benchmark result — never a regression *)
              if p = "wall_ns" then ()
              else
              match Hashtbl.find_opt old_tbl p with
              | None -> ()
              | Some v0 ->
                  incr compared;
                  let denom = Float.max (Float.abs v0) 1e-9 in
                  let rel = Float.abs (v -. v0) /. denom in
                  if rel > 0.05 then drifted := (p, v0, v, rel) :: !drifted;
                  (match !fail_on_regress with
                  | Some pct when rel > pct /. 100.0 ->
                      regressions := (section, p, v0, v, rel) :: !regressions
                  | _ -> ()))
            fresh_leaves;
          let drifted =
            List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) !drifted
          in
          Printf.printf "[%s: %d numeric leaves vs baseline, %d drifted >5%%]\n" section
            !compared (List.length drifted);
          List.iteri
            (fun i (p, v0, v, rel) ->
              if i < 5 then
                Printf.printf "    %s: %g -> %g (%+.1f%%)\n" p v0 v (100.0 *. rel))
            drifted)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* Every section also drops a machine-readable BENCH_<section>.json next
   to the textual output, so downstream tooling need not scrape tables. *)
let fig f =
  let out = f () in
  Figures.Fig_output.print out;
  Figures.Fig_output.to_json out

let run_section ~threads name =
  let w0 = Monotonic_clock.now () in
  let json =
    match name with
    | "fig10" -> fig (fun () -> Figures.Fig10.run ~threads ())
    | "fig11" -> fig (fun () -> Figures.Fig11.run ~threads ())
    | "fig12" -> fig (fun () -> Figures.Fig12.run ~threads ())
    | "fig13" -> fig (fun () -> Figures.Fig13.run ())
    | "fig14" -> fig (fun () -> Figures.Fig14.run ())
    | "fig15" -> fig (fun () -> Figures.Fig15.run ())
    | "fig16" -> fig (fun () -> Figures.Fig16.run ())
    | "determinism" -> fig (fun () -> Figures.Determinism_report.run ())
    | "tso" -> fig (fun () -> Figures.Tso_report.run ())
    | "races" -> fig (fun () -> Figures.Race_report.run ())
    | "climit" -> fig (fun () -> Figures.Climit_study.run ())
    | "soundness" -> fig (fun () -> Figures.Soundness_study.run ())
    | "locking" -> fig (fun () -> Figures.Locking_study.run ())
    | "chunking" -> fig (fun () -> Figures.Chunking_study.run ())
    | "micro" -> run_micro ()
    | "sched" -> run_sched ()
    | "replay" ->
        let figure = fig (fun () -> Figures.Replay_report.run ()) in
        let micro =
          run_bechamel ~id:"replay-micro"
            ~title:"record overhead on the depth-1000 commit microbench" (replay_tests ())
        in
        Obs.Json.Obj [ ("figure", figure); ("micro", micro) ]
    | "profile" -> fig (fun () -> Figures.Profile_report.run ())
    (* The commit sweep always runs its full 8..256-thread range: the
       whole point is the high-thread-count regime, and the simulations
       are cheap (a commit-bound microbenchmark, not a figure sweep). *)
    | "commit" -> fig (fun () -> Figures.Commit_report.run ())
    | "kv" -> fig (fun () -> Figures.Kv_report.run ())
    (* Quick-search auto-tuning over the whole registry: the acceptance
       verdicts (searched vs hand grid vs default) live in the notes. *)
    | "autotune" -> fig (fun () -> Figures.Autotune_report.run ())
    | "domains" ->
        let figure = fig (fun () -> Figures.Domains_calib.run ()) in
        Obs.Json.Obj
          [
            ("available_cores", Obs.Json.Int (Runtime.Domains_rt.available_cores ()));
            ("figure", figure);
          ]
    | other ->
        Printf.eprintf "unknown section %S; available: %s\n" other
          (String.concat " " section_names);
        exit 2
  in
  (* Every section dump also records how long the section itself took to
     produce, next to its simulated quantities.  Adding a top-level field
     keeps every existing BENCH_* schema backward-readable. *)
  let wall_ns = Int64.to_int (Int64.sub (Monotonic_clock.now ()) w0) in
  let json =
    match json with
    | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("wall_ns", Obs.Json.Int wall_ns) ])
    | other -> Obs.Json.Obj [ ("result", other); ("wall_ns", Obs.Json.Int wall_ns) ]
  in
  let file = Printf.sprintf "BENCH_%s.json" name in
  Obs.Json.to_file file json;
  Printf.printf "[%s -> %s]\n" name file;
  match !baseline_dir with
  | Some dir -> compare_with_baseline ~dir name json
  | None -> ()

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N] [--baseline DIR] [--fail-on-regress PCT] [--quick|full] [all|%s ...]\n"
    (String.concat "|" section_names);
  exit 2

let set_jobs n = Sim.Par.set_jobs (if n = 0 then Sim.Par.default_jobs () else n)

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
            set_jobs n;
            parse acc rest
        | _ -> usage ())
    | [ "-j" ] -> usage ()
    | "--baseline" :: dir :: rest ->
        baseline_dir := Some dir;
        parse acc rest
    | [ "--baseline" ] -> usage ()
    | "--fail-on-regress" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some p when p >= 0.0 ->
            fail_on_regress := Some p;
            parse acc rest
        | _ -> usage ())
    | [ "--fail-on-regress" ] -> usage ()
    | arg :: rest
      when String.length arg > 2 && String.sub arg 0 2 = "-j"
           && int_of_string_opt (String.sub arg 2 (String.length arg - 2)) <> None ->
        set_jobs (int_of_string (String.sub arg 2 (String.length arg - 2)));
        parse acc rest
    | "--quick" :: rest -> parse acc rest
    | "all" :: rest -> parse acc rest (* alias for the default: every section *)
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | arg :: rest -> parse (arg :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let full = List.mem "full" args in
  let threads = if full then full_threads else quick_threads in
  let sections = List.filter (fun a -> a <> "full") args in
  let sections = if sections = [] then section_names else sections in
  let w0 = Monotonic_clock.now () in
  let t0 = Sys.time () in
  List.iter
    (fun s ->
      run_section ~threads s;
      print_newline ())
    sections;
  Printf.printf "bench complete in %.1f s wall / %.1f s cpu (%d job%s)\n"
    (Int64.to_float (Int64.sub (Monotonic_clock.now ()) w0) /. 1e9)
    (Sys.time () -. t0) (Sim.Par.jobs ())
    (if Sim.Par.jobs () = 1 then "" else "s");
  match (!fail_on_regress, !regressions) with
  | Some pct, (_ :: _ as rs) ->
      Printf.printf "FAIL: %d numeric leaf/leaves regressed beyond %.1f%% vs baseline\n"
        (List.length rs) pct;
      List.iter
        (fun (section, p, v0, v, rel) ->
          Printf.printf "  [%s] %s: %g -> %g (%+.1f%%)\n" section p v0 v (100.0 *. rel))
        (List.rev rs);
      exit 1
  | _ -> ()

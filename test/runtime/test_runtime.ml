(* Integration tests for the deterministic runtimes and the pthreads
   baseline.  These check the paper's semantic claims: determinism of
   sync order / memory / output across perturbed executions, correctness
   of deterministic synchronization, the atomic-operations hazard
   (section 2.7), ad-hoc synchronization support, and coarsening
   behaviour. *)

module R = Runtime.Run
module Res = Stats.Run_result
module Bd = Stats.Breakdown

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let det_runtimes = [ R.dthreads; R.dwc; R.consequence_rr; R.consequence_ic ]

let counter_addr = 0

(* --- Test programs --------------------------------------------------- *)

(* Every worker increments a lock-protected counter [iters] times. *)
let locked_counter ~iters =
  Api.make ~name:"locked-counter" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                for _ = 1 to iters do
                  w.Api.work (200 + (i * 13));
                  w.Api.lock 1;
                  let v = w.Api.read_int ~addr:counter_addr in
                  w.Api.write_int ~addr:counter_addr (v + 1);
                  w.Api.unlock 1
                done))
      in
      List.iter ops.Api.join workers;
      ops.Api.log_output (Printf.sprintf "counter=%d" (ops.Api.read_int ~addr:counter_addr)))

(* Unsynchronized plain fetch_add from every worker.  The start barrier
   makes the workers actually overlap (spawn latency would otherwise
   serialize them and hide the lost updates). *)
let plain_rmw ~iters =
  Api.make ~name:"plain-rmw" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.barrier_wait 0;
                for _ = 1 to iters do
                  w.Api.work (150 + (i * 31));
                  ignore (w.Api.fetch_add ~addr:counter_addr 1)
                done))
      in
      List.iter ops.Api.join workers;
      ops.Api.log_output (Printf.sprintf "counter=%d" (ops.Api.read_int ~addr:counter_addr)))

(* Same but with the token-protected atomic op of section 2.7. *)
let atomic_rmw ~iters =
  Api.make ~name:"atomic-rmw" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.barrier_wait 0;
                for _ = 1 to iters do
                  w.Api.work (150 + (i * 31));
                  ignore (w.Api.atomic_fetch_add ~addr:counter_addr 1)
                done))
      in
      List.iter ops.Api.join workers;
      ops.Api.log_output (Printf.sprintf "counter=%d" (ops.Api.read_int ~addr:counter_addr)))

(* Barrier-phased writers: phase 1 everyone writes its slot, phase 2
   everyone reads all slots and records the sum. *)
let barrier_phases =
  Api.make ~name:"barrier-phases" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.work (500 * (i + 1));
                w.Api.write_int ~addr:(8 * (i + 1)) (100 + i);
                w.Api.barrier_wait 0;
                let sum = ref 0 in
                for j = 1 to nthreads do
                  sum := !sum + w.Api.read_int ~addr:(8 * j)
                done;
                (* Store rather than log: concurrent log order is runtime-
                   specific; memory content after joins is not. *)
                w.Api.write_int ~addr:(256 + (8 * i)) !sum))
      in
      List.iter ops.Api.join workers;
      for i = 0 to nthreads - 1 do
        ops.Api.log_output (Printf.sprintf "sum%d=%d" i (ops.Api.read_int ~addr:(256 + (8 * i))))
      done)

(* Producer/consumer over a one-slot mailbox with condvars. *)
let producer_consumer ~items =
  Api.make ~name:"prod-cons" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let full = 8 and value = 16 and consumed_sum = 24 in
      let m = 0 and c_full = 0 and c_empty = 1 in
      let producer =
        ops.Api.spawn ~name:"producer" (fun w ->
            for i = 1 to items do
              w.Api.work 300;
              w.Api.lock m;
              while w.Api.read_int ~addr:full = 1 do
                w.Api.cond_wait c_empty m
              done;
              w.Api.write_int ~addr:value i;
              w.Api.write_int ~addr:full 1;
              w.Api.cond_signal c_full;
              w.Api.unlock m
            done)
      in
      let consumer =
        ops.Api.spawn ~name:"consumer" (fun w ->
            for _ = 1 to items do
              w.Api.work 200;
              w.Api.lock m;
              while w.Api.read_int ~addr:full = 0 do
                w.Api.cond_wait c_full m
              done;
              let v = w.Api.read_int ~addr:value in
              w.Api.write_int ~addr:full 0;
              w.Api.write_int ~addr:consumed_sum (w.Api.read_int ~addr:consumed_sum + v);
              w.Api.cond_signal c_empty;
              w.Api.unlock m
            done;
            w.Api.log_output (Printf.sprintf "sum=%d" (w.Api.read_int ~addr:consumed_sum)))
      in
      ops.Api.join producer;
      ops.Api.join consumer)

(* Mixed contention: multiple locks, a barrier, shared-page writes. *)
let contended =
  Api.make ~name:"contended" ~heap_pages:32 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                for round = 1 to 12 do
                  w.Api.work (250 * ((i mod 3) + 1));
                  let l = round mod 3 in
                  w.Api.lock l;
                  let a = 8 * (l + 1) in
                  w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
                  w.Api.unlock l
                done;
                w.Api.barrier_wait 0;
                w.Api.write ~addr:(128 + (i * 16)) (Bytes.make 16 (Char.chr (65 + i)))))
      in
      List.iter ops.Api.join workers)

(* Ad-hoc synchronization (section 2.7): spin on a flag set by a peer. *)
let flag_spin =
  Api.make ~name:"flag-spin" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let setter =
        ops.Api.spawn ~name:"setter" (fun w ->
            w.Api.work 20_000;
            w.Api.write_int ~addr:8 1;
            (* The write needs a commit to become visible; under a chunk
               limit the forced commit publishes it. *)
            w.Api.work 200_000)
      in
      let spinner =
        ops.Api.spawn ~name:"spinner" (fun w ->
            while w.Api.read_int ~addr:8 = 0 do
              w.Api.work 1_000
            done;
            w.Api.log_output "saw-flag")
      in
      ops.Api.join setter;
      ops.Api.join spinner)

(* Two programs that differ only in how they read: every worker fills
   its own 8-page region (the shape of a kv intent region), meets the
   others at a barrier, then reads each region, whole and in spans that
   start or end mid-page, and folds the bytes into a sum.  [~into:false]
   reads through [read]; [~into:true] makes the same reads through
   [read_into], into buffers it keeps for the whole run.  Main reports
   the sums through [sums] after the join. *)
let twin_page = 256
let twin_region = 8 * twin_page
let twin_spans = [ (0, twin_region); (100, 300); (255, 2); (twin_region - 8, 8); (17, 1) ]
let twin_byte i j = Char.chr (((i * 31) + (j * 7)) land 255)

let twin_fold sum buf = Bytes.fold_left (fun acc c -> ((acc * 31) + Char.code c) land 0xFFFFFFF) sum buf

let read_twin ~into ~sums =
  Api.make ~name:"read-twin" ~heap_pages:((8 * 8) + 1) ~page_size:twin_page (fun ~nthreads ops ->
      let nthreads = min nthreads 8 in
      let result i = (8 * twin_region) + (8 * i) in
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.write ~addr:(i * twin_region) (Bytes.init twin_region (twin_byte i));
                w.Api.barrier_wait 0;
                let bufs = List.map (fun (_, len) -> Bytes.create len) twin_spans in
                let sum = ref 0 in
                for t = 0 to nthreads - 1 do
                  List.iter2
                    (fun (off, len) buf ->
                      let addr = (t * twin_region) + off in
                      let b =
                        if into then begin
                          w.Api.read_into ~addr buf;
                          buf
                        end
                        else w.Api.read ~addr ~len
                      in
                      sum := twin_fold !sum b)
                    twin_spans bufs
                done;
                w.Api.write_int ~addr:(result i) !sum))
      in
      List.iter ops.Api.join workers;
      sums := Array.init nthreads (fun i -> ops.Api.read_int ~addr:(result i));
      Array.iteri (fun i v -> ops.Api.log_output (Printf.sprintf "sum%d=%d" i v)) !sums)

(* What every worker of [read_twin] must sum at [nthreads]. *)
let twin_expected nthreads =
  let sum = ref 0 in
  for t = 0 to nthreads - 1 do
    let region = Bytes.init twin_region (twin_byte t) in
    List.iter (fun (off, len) -> sum := twin_fold !sum (Bytes.sub region off len)) twin_spans
  done;
  !sum

let witness rt ?(threads = 4) ?(seed = 1) prog =
  Res.deterministic_witness (R.run rt ~seed ~nthreads:threads prog)

(* --- Basic execution ------------------------------------------------- *)

let test_all_runtimes_complete () =
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 (locked_counter ~iters:10) in
      check_bool (R.name rt ^ " ran") true (r.Res.wall_ns > 0);
      check_int (R.name rt ^ " threads") 4 r.Res.nthreads;
      check_bool (R.name rt ^ " has sync ops") true (r.Res.sync_ops > 0))
    R.all

let test_locked_counter_exact_everywhere () =
  (* Mutual exclusion must make the counter exact on every runtime; all
     runtimes must agree on the final memory image. *)
  let reference = R.run R.pthreads ~seed:1 ~nthreads:4 (locked_counter ~iters:10) in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 (locked_counter ~iters:10) in
      check_string (R.name rt ^ " same memory") reference.Res.mem_hash r.Res.mem_hash;
      check_string (R.name rt ^ " same output") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

let test_same_seed_reproducible () =
  List.iter
    (fun rt ->
      let r1 = R.run rt ~seed:7 ~nthreads:4 contended in
      let r2 = R.run rt ~seed:7 ~nthreads:4 contended in
      check_int (R.name rt ^ " same wall") r1.Res.wall_ns r2.Res.wall_ns;
      check_string (R.name rt ^ " same witness") (Res.deterministic_witness r1)
        (Res.deterministic_witness r2))
    R.all

(* --- Determinism across seeds ---------------------------------------- *)

let test_det_runtimes_seed_invariant () =
  List.iter
    (fun rt ->
      let w1 = witness rt ~seed:1 contended in
      List.iter
        (fun seed ->
          check_string
            (Printf.sprintf "%s witness seed %d" (R.name rt) seed)
            w1 (witness rt ~seed contended))
        [ 2; 3; 17; 91 ])
    det_runtimes

(* Timing-sensitive race: read, gap, write on one shared word. *)
let racy_gap =
  Api.make ~name:"racy-gap" ~heap_pages:16 ~page_size:64 (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.barrier_wait 0;
                for _ = 1 to 30 do
                  let v = w.Api.read_int ~addr:0 in
                  w.Api.work (100 + i);
                  w.Api.write_int ~addr:0 (v + 1);
                  w.Api.work 400
                done))
      in
      List.iter ops.Api.join workers)

let test_pthreads_diverges_across_seeds () =
  let witnesses = List.map (fun seed -> witness R.pthreads ~seed racy_gap) [ 1; 2; 3; 5; 8; 13 ] in
  let distinct = List.sort_uniq compare witnesses in
  check_bool "pthreads interleavings vary" true (List.length distinct > 1);
  (* While the deterministic runtimes are invariant on the same program. *)
  List.iter
    (fun rt ->
      let w1 = witness rt ~seed:1 racy_gap and w2 = witness rt ~seed:13 racy_gap in
      check_string (R.name rt ^ " racy-gap invariant") w1 w2)
    det_runtimes

let test_det_runtimes_thread_count_changes_allowed () =
  (* Determinism is per-configuration: different thread counts may give
     different (but each internally stable) results. *)
  List.iter
    (fun rt ->
      let w2 = witness rt ~threads:2 contended and w2' = witness rt ~threads:2 ~seed:9 contended in
      check_string (R.name rt ^ " stable at 2 threads") w2 w2')
    det_runtimes

(* --- Synchronization correctness ------------------------------------- *)

let test_barrier_visibility () =
  (* After the barrier every thread must see all pre-barrier writes: all
     workers log the same sum, on every runtime, and the output matches
     pthreads. *)
  let reference = R.run R.pthreads ~seed:1 ~nthreads:4 barrier_phases in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 barrier_phases in
      check_string (R.name rt ^ " barrier sums") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

let test_producer_consumer () =
  let expected_sum = 15 * 16 / 2 in
  ignore expected_sum;
  let reference = R.run R.pthreads ~seed:1 (producer_consumer ~items:15) in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 (producer_consumer ~items:15) in
      check_string (R.name rt ^ " consumed sum") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

let test_unlock_without_lock_raises () =
  let prog =
    Api.make ~name:"bad-unlock" (fun ~nthreads:_ ops -> ops.Api.unlock 3)
  in
  List.iter
    (fun rt ->
      let raised = try ignore (R.run rt prog); false with Invalid_argument _ -> true in
      check_bool (R.name rt ^ " raises") true raised)
    R.all

let test_self_deadlock_detected () =
  let prog =
    Api.make ~name:"self-deadlock" (fun ~nthreads:_ ops ->
        ops.Api.lock 1;
        ops.Api.lock 1)
  in
  List.iter
    (fun rt ->
      let raised = try ignore (R.run rt prog); false with Sim.Engine.Deadlock _ -> true in
      check_bool (R.name rt ^ " deadlock detected") true raised)
    R.all

let test_uninitialized_barrier_raises () =
  let prog = Api.make ~name:"bad-barrier" (fun ~nthreads:_ ops -> ops.Api.barrier_wait 5) in
  List.iter
    (fun rt ->
      let raised = try ignore (R.run rt prog); false with Invalid_argument _ -> true in
      check_bool (R.name rt ^ " raises") true raised)
    R.all

(* --- Atomic operations (section 2.7) ---------------------------------- *)

let test_plain_rmw_atomic_under_pthreads () =
  let r = R.run R.pthreads ~seed:1 ~nthreads:4 (plain_rmw ~iters:25) in
  (* The simulated hardware fetch_add is indivisible: exactly 100. *)
  let expected = R.run R.pthreads ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
  check_string "plain = atomic under pthreads" expected.Res.output_hash r.Res.output_hash

let test_plain_rmw_loses_updates_deterministically () =
  (* Under isolation the plain RMW loses concurrent increments; the loss
     must itself be deterministic (same witness across seeds). *)
  List.iter
    (fun rt ->
      let r1 = R.run rt ~seed:1 ~nthreads:4 (plain_rmw ~iters:25) in
      let r2 = R.run rt ~seed:5 ~nthreads:4 (plain_rmw ~iters:25) in
      check_string (R.name rt ^ " deterministic loss") (Res.deterministic_witness r1)
        (Res.deterministic_witness r2);
      (* And it actually loses updates: the result differs from the
         correctly-atomic run. *)
      let atomic = R.run rt ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
      check_bool (R.name rt ^ " lost updates") true
        (r1.Res.output_hash <> atomic.Res.output_hash))
    det_runtimes

let test_atomic_rmw_exact_everywhere () =
  let reference = R.run R.pthreads ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 (atomic_rmw ~iters:25) in
      check_string (R.name rt ^ " exact count") reference.Res.output_hash r.Res.output_hash)
    det_runtimes

(* --- Ad-hoc synchronization (section 2.7) ----------------------------- *)

let test_flag_spin_stuck_without_limit () =
  (* With commits only at sync ops, the spinner never sees the flag. *)
  let cfg = Runtime.Config.consequence_ic in
  let raised =
    try
      ignore (Runtime.Det_rt.run cfg ~seed:1 flag_spin);
      false
    with Sim.Engine.Stuck _ -> true
  in
  check_bool "spinner livelocks without chunk limit" true raised

let test_flag_spin_terminates_with_limit () =
  let cfg = Runtime.Config.with_chunk_limit Runtime.Config.consequence_ic 10_000 in
  let r = Runtime.Det_rt.run cfg ~seed:1 flag_spin in
  check_bool "spinner saw flag" true (r.Res.wall_ns > 0);
  (* Deterministic too. *)
  let r2 = Runtime.Det_rt.run cfg ~seed:3 flag_spin in
  check_string "deterministic with limit" (Res.deterministic_witness r)
    (Res.deterministic_witness r2)

let test_flag_spin_fine_under_pthreads () =
  let r = R.run R.pthreads ~seed:1 flag_spin in
  check_bool "pthreads sees stores immediately" true (r.Res.wall_ns > 0)

(* --- Coarsening (section 3.1) ----------------------------------------- *)

let fine_grained_locks =
  Api.make ~name:"fine-grained" ~heap_pages:32 ~page_size:64 (fun ~nthreads ops ->
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                for round = 1 to 40 do
                  w.Api.work 300;
                  let l = (i + round) mod 8 in
                  w.Api.lock l;
                  let a = 8 * (l + 1) in
                  w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
                  w.Api.work 100;
                  w.Api.unlock l
                done))
      in
      List.iter ops.Api.join workers)

let test_coarsening_reduces_commits () =
  let base = Runtime.Config.consequence_ic in
  let with_c = Runtime.Det_rt.run base ~seed:1 ~nthreads:4 fine_grained_locks in
  let without =
    Runtime.Det_rt.run (Runtime.Config.without_coarsening base) ~seed:1 ~nthreads:4
      fine_grained_locks
  in
  check_bool "coarsened chunks happened" true (with_c.Res.coarsened_chunks > 0);
  check_bool "fewer token acquisitions with coarsening" true
    (with_c.Res.token_acquisitions < without.Res.token_acquisitions);
  check_bool "no coarsening => none counted" true (without.Res.coarsened_chunks = 0)

let test_static_coarsening_levels_run () =
  List.iter
    (fun k ->
      let cfg = Runtime.Config.with_static_coarsening Runtime.Config.consequence_ic k in
      let r = Runtime.Det_rt.run cfg ~seed:1 ~nthreads:4 fine_grained_locks in
      let r2 = Runtime.Det_rt.run cfg ~seed:9 ~nthreads:4 fine_grained_locks in
      check_string
        (Printf.sprintf "static-%d deterministic" k)
        (Res.deterministic_witness r) (Res.deterministic_witness r2))
    [ 0; 1; 2; 4 ]

let test_coarsening_preserves_results () =
  let base = Runtime.Config.consequence_ic in
  let with_c = Runtime.Det_rt.run base ~seed:1 ~nthreads:4 (locked_counter ~iters:20) in
  let without =
    Runtime.Det_rt.run (Runtime.Config.without_coarsening base) ~seed:1 ~nthreads:4
      (locked_counter ~iters:20)
  in
  (* Different interleavings are permitted, but the lock-protected counter
     is exact either way: memory must match. *)
  check_string "same final memory" with_c.Res.mem_hash without.Res.mem_hash

(* --- Optimization toggles run and stay deterministic ------------------- *)

let test_ablation_configs_deterministic () =
  let base = Runtime.Config.consequence_ic in
  let variants =
    [
      Runtime.Config.without_coarsening base;
      Runtime.Config.without_adaptive_overflow base;
      Runtime.Config.without_userspace_reads base;
      Runtime.Config.without_fast_forward base;
      Runtime.Config.without_parallel_barrier base;
      Runtime.Config.without_thread_pool base;
    ]
  in
  List.iter
    (fun cfg ->
      let r1 = Runtime.Det_rt.run cfg ~seed:1 ~nthreads:4 contended in
      let r2 = Runtime.Det_rt.run cfg ~seed:11 ~nthreads:4 contended in
      check_string (cfg.Runtime.Config.name ^ " deterministic") (Res.deterministic_witness r1)
        (Res.deterministic_witness r2))
    variants

let test_thread_pool_reuse () =
  (* Sequential spawn/join pairs: with pooling, later spawns reuse exited
     threads and the Fork time shrinks. *)
  let serial_spawns =
    Api.make ~name:"serial-spawns" ~heap_pages:64 ~page_size:64 (fun ~nthreads:_ ops ->
        for i = 0 to 9 do
          ops.Api.write ~addr:(i * 64) (Bytes.make 64 'x');
          let t = ops.Api.spawn (fun w -> w.Api.work 2_000) in
          ops.Api.join t
        done)
  in
  let with_pool = Runtime.Det_rt.run Runtime.Config.consequence_ic ~seed:1 serial_spawns in
  let without =
    Runtime.Det_rt.run
      (Runtime.Config.without_thread_pool Runtime.Config.consequence_ic)
      ~seed:1 serial_spawns
  in
  let fork_ns r = Bd.get (Res.aggregate_breakdown r) Bd.Fork in
  check_bool "pool reduces fork time" true (fork_ns with_pool < fork_ns without)

(* --- Counter jitter breaks the determinism guarantee ------------------- *)

let test_counter_jitter_still_runs () =
  let cfg = Runtime.Config.with_counter_jitter Runtime.Config.consequence_ic ~ppm:100_000 in
  let r = Runtime.Det_rt.run cfg ~seed:1 ~nthreads:4 contended in
  check_bool "runs" true (r.Res.wall_ns > 0)

(* --- Fig 1 shape: instruction-count vs round-robin --------------------- *)

let mismatch_program =
  Api.make ~name:"mismatch" ~heap_pages:16 ~page_size:64 (fun ~nthreads:_ ops ->
      let fast =
        ops.Api.spawn (fun w ->
            for _ = 1 to 40 do
              w.Api.work 1_000;
              w.Api.lock 1;
              w.Api.write_int ~addr:0 (w.Api.read_int ~addr:0 + 1);
              w.Api.unlock 1
            done)
      in
      let slow =
        ops.Api.spawn (fun w ->
            for _ = 1 to 4 do
              w.Api.work 40_000;
              w.Api.lock 2;
              w.Api.write_int ~addr:8 (w.Api.read_int ~addr:8 + 1);
              w.Api.unlock 2
            done)
      in
      ops.Api.join fast;
      ops.Api.join slow)

let test_ic_beats_rr_on_mismatched_rates () =
  let ic = R.run R.consequence_ic ~seed:1 mismatch_program in
  let dthreads = R.run R.dthreads ~seed:1 mismatch_program in
  check_bool "IC much faster than DThreads on mismatched rates" true
    (dthreads.Res.wall_ns > 2 * ic.Res.wall_ns)

(* --- Random-program determinism property ------------------------------ *)

(* Generate a deterministic random program from an integer seed: each
   worker performs a fixed sequence of works, lock-protected updates and
   barrier waits derived from a SplitMix stream. *)
let random_program ~prog_seed ~rounds =
  Api.make
    ~name:(Printf.sprintf "random-%d" prog_seed)
    ~heap_pages:32 ~page_size:64
    (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            (* Precompute the op sequence so every thread performs exactly
               [rounds] barrier waits in total (padding at the end). *)
            let p = Sim.Prng.create ~seed:(prog_seed + (1000 * i)) in
            let script =
              List.init rounds (fun _ ->
                  match Sim.Prng.int p ~bound:4 with
                  | 0 -> `Work (Sim.Prng.int p ~bound:2_000 + 100)
                  | 1 -> `Locked (Sim.Prng.int p ~bound:3)
                  | 2 -> `Write (256 + (8 * Sim.Prng.int p ~bound:64), Sim.Prng.int p ~bound:1_000_000)
                  | _ -> `Barrier)
            in
            let barrier_count =
              List.length (List.filter (fun op -> op = `Barrier) script)
            in
            ops.Api.spawn (fun w ->
                List.iter
                  (fun op ->
                    match op with
                    | `Work n -> w.Api.work n
                    | `Locked l ->
                        w.Api.lock l;
                        let a = 8 * (l + 1) in
                        w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
                        w.Api.unlock l
                    | `Write (addr, v) -> w.Api.write_int ~addr v
                    | `Barrier -> w.Api.barrier_wait 0)
                  script;
                for _ = barrier_count + 1 to rounds do
                  w.Api.barrier_wait 0
                done))
      in
      List.iter ops.Api.join workers)

let prop_random_programs_deterministic =
  QCheck.Test.make ~name:"random programs: det runtimes are seed-invariant" ~count:12
    QCheck.(int_bound 10_000)
    (fun prog_seed ->
      let prog = random_program ~prog_seed ~rounds:8 in
      List.for_all
        (fun rt ->
          let w1 = witness rt ~threads:3 ~seed:1 prog in
          let w2 = witness rt ~threads:3 ~seed:99 prog in
          w1 = w2)
        det_runtimes)

let prop_locked_counter_memory_agrees =
  QCheck.Test.make ~name:"well-synchronized programs agree across runtimes" ~count:8
    QCheck.(int_range 1 20)
    (fun iters ->
      let prog = locked_counter ~iters in
      let reference = R.run R.pthreads ~seed:1 ~nthreads:3 prog in
      List.for_all
        (fun rt ->
          let r = R.run rt ~seed:1 ~nthreads:3 prog in
          r.Res.mem_hash = reference.Res.mem_hash)
        det_runtimes)

(* --- Result plumbing --------------------------------------------------- *)

let test_breakdown_covers_wall_time () =
  (* Each thread's breakdown total cannot exceed total wall time. *)
  List.iter
    (fun rt ->
      let r = R.run rt ~seed:1 ~nthreads:4 contended in
      List.iter
        (fun ts ->
          check_bool
            (Printf.sprintf "%s/%s breakdown bounded" (R.name rt) ts.Res.thread_name)
            true
            (Bd.total ts.Res.breakdown <= r.Res.wall_ns))
        r.Res.per_thread)
    R.all

let test_per_thread_names () =
  let prog =
    Api.make ~name:"named" (fun ~nthreads:_ ops ->
        let t = ops.Api.spawn ~name:"worker-zero" (fun w -> w.Api.work 100) in
        ops.Api.join t)
  in
  let r = R.run R.consequence_ic prog in
  let names = List.map (fun ts -> ts.Res.thread_name) r.Res.per_thread in
  check_bool "main present" true (List.mem "main" names);
  check_bool "named worker present" true (List.mem "worker-zero" names)

let test_config_presets_invariants () =
  (* The presets must encode the papers' design points. *)
  let open Runtime.Config in
  Alcotest.(check bool) "dthreads single lock" true (dthreads.lock_granularity = Single_global);
  Alcotest.(check bool) "dthreads pays mprotect multipliers" true
    (dthreads.fault_cost_mult > 1.5 && dthreads.commit_cost_mult > 2.0);
  Alcotest.(check bool) "dwc single lock" true (dwc.lock_granularity = Single_global);
  Alcotest.(check bool) "dwc round-robin" true (dwc.ordering = Round_robin);
  Alcotest.(check bool) "cons-rr round-robin" true (consequence_rr.ordering = Round_robin);
  Alcotest.(check bool) "cons-ic instruction-count" true
    (consequence_ic.ordering = Instruction_count);
  List.iter
    (fun cfg ->
      Alcotest.(check bool) (cfg.name ^ " per-lock") true (cfg.lock_granularity = Per_lock);
      Alcotest.(check bool) (cfg.name ^ " all opts on") true
        (cfg.coarsening = Adaptive && cfg.adaptive_overflow && cfg.userspace_reads
       && cfg.fast_forward && cfg.parallel_barrier && cfg.thread_pool))
    [ consequence_rr; consequence_ic ];
  Alcotest.(check int) "four presets" 4 (List.length presets)

let test_single_global_lock_aliases () =
  (* Under DThreads, two different mutexes are one lock: a thread holding
     mutex 1 blocks another locking mutex 2. *)
  let order = ref [] in
  let prog =
    Api.make ~name:"alias-probe" ~heap_pages:8 ~page_size:64 (fun ~nthreads:_ ops ->
        let a =
          ops.Api.spawn (fun w ->
              w.Api.lock 1;
              order := "a-locked" :: !order;
              w.Api.work 50_000;
              order := "a-unlocking" :: !order;
              w.Api.unlock 1)
        in
        let b =
          ops.Api.spawn (fun w ->
              w.Api.work 5_000;
              w.Api.lock 2;
              order := "b-locked" :: !order;
              w.Api.unlock 2)
        in
        ops.Api.join a;
        ops.Api.join b)
  in
  order := [];
  ignore (Runtime.Det_rt.run Runtime.Config.dthreads ~seed:1 prog);
  Alcotest.(check (list string)) "mutex 2 waits for mutex 1 under dthreads"
    [ "a-locked"; "a-unlocking"; "b-locked" ] (List.rev !order);
  order := [];
  (* Coarsening would hold the token across a's critical section; disable
     it to observe the base algorithm's Fig 5 concurrency. *)
  ignore
    (Runtime.Det_rt.run
       (Runtime.Config.without_coarsening Runtime.Config.consequence_ic)
       ~seed:1 prog);
  Alcotest.(check (list string)) "independent locks under consequence"
    [ "a-locked"; "b-locked"; "a-unlocking" ] (List.rev !order)

let test_best_over_threads () =
  let r =
    R.best_over_threads R.consequence_ic ~threads:[ 2; 4 ] (locked_counter ~iters:10)
  in
  check_bool "picked one" true (r.Res.nthreads = 2 || r.Res.nthreads = 4)

(* --- Observability ---------------------------------------------------- *)

(* Instrumentation must be determinism-neutral: attaching a tracer sink
   must not change the witness, the simulated wall time, or the sync-op
   count.  The sink only reads the clock, never advances it. *)
let test_obs_neutrality () =
  List.iter
    (fun prog ->
      List.iter
        (fun rt ->
          let bare = R.run rt ~seed:1 ~nthreads:4 prog in
          let tr = Obs.Tracer.create () in
          let traced = R.run rt ~seed:1 ~nthreads:4 ~obs:(Obs.Tracer.sink tr) prog in
          let name = R.name rt ^ "/" ^ prog.Api.name in
          check_string (name ^ " witness unchanged")
            (Res.deterministic_witness bare)
            (Res.deterministic_witness traced);
          check_int (name ^ " wall_ns unchanged") bare.Res.wall_ns traced.Res.wall_ns;
          check_int (name ^ " sync_ops unchanged") bare.Res.sync_ops traced.Res.sync_ops;
          if List.mem rt det_runtimes then
            check_bool (name ^ " produced spans") true (Obs.Tracer.span_count tr > 0))
        R.all)
    [ locked_counter ~iters:8; contended ]

(* Rt_event observer: events are delivered in global token order, so the
   stream is seed-invariant, commit versions arrive strictly increasing,
   and mutex acquire/release counts match the program exactly. *)
let test_observer_token_order () =
  let iters = 6 and nthreads = 4 in
  let prog = locked_counter ~iters in
  let collect rt seed =
    let events = ref [] in
    let r = R.run rt ~seed ~nthreads ~observer:(fun e -> events := e :: !events) prog in
    (r, List.rev !events)
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as tl) -> a < b && strictly_increasing tl
    | _ -> true
  in
  List.iter
    (fun rt ->
      let r, events = collect rt 1 in
      let name = R.name rt in
      let m1 = Runtime.Rt_event.obj_mutex 1 in
      let count p = List.length (List.filter p events) in
      check_int (name ^ " mutex acquires") (nthreads * iters)
        (count (function Runtime.Rt_event.Acquire { obj; _ } -> obj = m1 | _ -> false));
      check_int (name ^ " mutex releases") (nthreads * iters)
        (count (function Runtime.Rt_event.Release { obj; _ } -> obj = m1 | _ -> false));
      let versions =
        List.filter_map
          (function Runtime.Rt_event.Commit { version; _ } -> Some version | _ -> None)
          events
      in
      check_bool (name ^ " saw commits") true (versions <> []);
      check_bool (name ^ " commit versions strictly increasing") true
        (strictly_increasing versions);
      (* The observer is itself neutral... *)
      check_string (name ^ " observer neutral") (witness rt ~threads:nthreads prog)
        (Res.deterministic_witness r);
      (* ...and the stream is part of the deterministic behaviour: a
         different seed yields the identical event sequence. *)
      let _, events2 = collect rt 99 in
      check_bool (name ^ " event stream seed-invariant") true (events = events2))
    det_runtimes

(* Commit_hash is observer-only, like Boundary: a trace sink records
   each commit's instant but no hash instant, while an observer receives
   exactly one Commit_hash, for the same version, right after every
   Commit. *)
let test_commit_hash_observer_only () =
  let prog = locked_counter ~iters:6 in
  List.iter
    (fun rt ->
      let name = R.name rt in
      let tr = Obs.Tracer.create () in
      ignore (R.run rt ~seed:1 ~nthreads:4 ~obs:(Obs.Tracer.sink tr) prog);
      let instants = List.map (fun i -> i.Obs.Span.iname) (Obs.Tracer.instants tr) in
      let count prefix = List.length (List.filter (String.starts_with ~prefix) instants) in
      check_bool (name ^ " sink saw commit instants") true (count "commit:" > 0);
      check_int (name ^ " sink saw no hash instants") 0 (count "hash:");
      let events = ref [] in
      ignore (R.run rt ~seed:1 ~nthreads:4 ~observer:(fun e -> events := e :: !events) prog);
      let rec paired n = function
        | Runtime.Rt_event.Commit { version; _ }
          :: Runtime.Rt_event.Commit_hash { version = v; _ } :: tl ->
            if version = v then paired (n + 1) tl else None
        | (Runtime.Rt_event.Commit _ | Runtime.Rt_event.Commit_hash _) :: _ -> None
        | _ :: tl -> paired n tl
        | [] -> Some n
      in
      match paired 0 (List.rev !events) with
      | Some n -> check_bool (name ^ " observer saw commits") true (n > 0)
      | None -> Alcotest.fail (name ^ ": a Commit without its Commit_hash, or vice versa"))
    det_runtimes

(* --- Golden witnesses ------------------------------------------------- *)

(* Witnesses (memory | sync-order | output hashes) captured before the
   vmem data-structure rewrite: offset-array page histories, aliasing
   workspaces, word-level merges.  The optimizations must not change a
   single observable bit of any deterministic run. *)
let golden_witnesses =
  [
    ("ocean_cp", "ic", 1, 4, "mem:3500e97ddec7b1a5|sync:dc25764496b47537|out:c49cf87fe8105953");
    ("ocean_cp", "ic", 7, 8, "mem:eb2a8b77cfddc7e5|sync:52c31b5a52811ee5|out:b707195714792bac");
    ("ocean_cp", "rr", 1, 4, "mem:d107be09d96580e5|sync:738aae0c1034c2c5|out:c49cf87fe8105953");
    ("ocean_cp", "rr", 7, 8, "mem:08cc10b505866625|sync:dd94fe21b079373d|out:b707195714792bac");
    ("ocean_cp", "dthreads", 1, 4, "mem:d107be09d96580e5|sync:738aae0c1034c2c5|out:c49cf87fe8105953");
    ("ocean_cp", "dthreads", 7, 8, "mem:08cc10b505866625|sync:dd94fe21b079373d|out:b707195714792bac");
    ("lu_ncb", "ic", 1, 4, "mem:3fba6f123bd55125|sync:bde8bf61ea83ac80|out:a2adaaa7778ff46a");
    ("lu_ncb", "ic", 7, 8, "mem:259d8dcc7d1f17a5|sync:f574fd213046e0c0|out:a2c228a777a1738e");
    ("lu_ncb", "rr", 1, 4, "mem:3fba6f123bd55125|sync:6b233b1f658b0954|out:a2adaaa7778ff46a");
    ("lu_ncb", "rr", 7, 8, "mem:259d8dcc7d1f17a5|sync:efb24da613802c58|out:a2c228a777a1738e");
    ("lu_ncb", "dthreads", 1, 4, "mem:3fba6f123bd55125|sync:6b233b1f658b0954|out:a2adaaa7778ff46a");
    ("lu_ncb", "dthreads", 7, 8, "mem:259d8dcc7d1f17a5|sync:efb24da613802c58|out:a2c228a777a1738e");
    ("canneal", "ic", 1, 4, "mem:7f529a7d5585192f|sync:bde8bf61ea83ac80|out:4fc780561cfa8a57");
    ("canneal", "ic", 7, 8, "mem:e6adc733da6dcdc9|sync:f574fd213046e0c0|out:4fdbfa561d0c02af");
    ("canneal", "rr", 1, 4, "mem:7f529a7d5585192f|sync:6b233b1f658b0954|out:4fc780561cfa8a57");
    ("canneal", "rr", 7, 8, "mem:e6adc733da6dcdc9|sync:efb24da613802c58|out:4fdbfa561d0c02af");
    ("canneal", "dthreads", 1, 4, "mem:7f529a7d5585192f|sync:6b233b1f658b0954|out:4fc780561cfa8a57");
    ("canneal", "dthreads", 7, 8, "mem:e6adc733da6dcdc9|sync:efb24da613802c58|out:4fdbfa561d0c02af");
    ("ferret", "ic", 1, 4, "mem:2d65179d8ddd1dc4|sync:b3f68333e65a073c|out:3c728c8cc38ca406");
    (* Re-captured when grant's fast-forward target became the waker's
       fully-published count (it previously embedded the overflow
       publication schedule, which is real-time dependent on the
       domains backend).  Only this configuration exercised a
       coarsened-unlock grant with unpublished instructions. *)
    ("ferret", "ic", 7, 8, "mem:7ac6ba1edded963a|sync:25023183ee3e56be|out:3c728c8cc38ca406");
    ("ferret", "rr", 1, 4, "mem:2d65179d8ddd1dc4|sync:95250b1455c9ba75|out:3c728c8cc38ca406");
    ("ferret", "rr", 7, 8, "mem:631f100e7411bb45|sync:a0986ee5e8ec2cd5|out:3c728c8cc38ca406");
    ("ferret", "dthreads", 1, 4, "mem:2d65179d8ddd1dc4|sync:482306b4c8cc2625|out:3c728c8cc38ca406");
    ("ferret", "dthreads", 7, 8, "mem:7824920bcaafc945|sync:571057fc97664d0d|out:3c728c8cc38ca406");
    ("histogram", "ic", 1, 4, "mem:384cf590cc756005|sync:67960f895c0dfd39|out:bc0ad10f36edc013");
    ("histogram", "ic", 7, 8, "mem:2e915ded5ab0a865|sync:13e54b852099d70e|out:b3703b17bee0ba86");
    ("histogram", "rr", 1, 4, "mem:384cf590cc756005|sync:af202c55a7adf659|out:bc0ad10f36edc013");
    ("histogram", "rr", 7, 8, "mem:2e915ded5ab0a865|sync:4e83f62079f07bfa|out:b3703b17bee0ba86");
    ("histogram", "dthreads", 1, 4, "mem:384cf590cc756005|sync:bd39ad13418b9fb9|out:bc0ad10f36edc013");
    ("histogram", "dthreads", 7, 8, "mem:2e915ded5ab0a865|sync:9caf76ab585d73da|out:b3703b17bee0ba86");
  ]

(* Parallel-commit on/off: the sharded pipelined commit with incremental
   GC relocates cost (off the token hold, into commit slack) but
   installs the same bytes in the same version order — every
   registry workload must produce a byte-identical witness with the
   machinery on, on every deterministic runtime, at every seed.  This is
   the live counterpart of the hardcoded golden list above: it pins the
   optimized path to whatever the baseline path produces today. *)
let test_parallel_commit_witness_identity () =
  let pipe_of cfg =
    Runtime.Config.with_incremental_gc
      (Runtime.Config.with_commit_shards (Runtime.Config.with_pipelined_commit cfg) 8)
  in
  List.iter
    (fun (entry : Workload.Registry.entry) ->
      List.iter
        (fun rt ->
          match rt with
          | R.Pthreads | R.Domains _ -> ()
          | R.Det cfg ->
              List.iter
                (fun seed ->
                  let base =
                    Res.deterministic_witness (R.run rt ~seed ~nthreads:8 entry.program)
                  in
                  let piped =
                    Res.deterministic_witness
                      (R.run (R.Det (pipe_of cfg)) ~seed ~nthreads:8 entry.program)
                  in
                  check_string
                    (Printf.sprintf "%s/%s seed=%d pipelined" entry.program.Api.name
                       (R.name rt) seed)
                    base piped)
                [ 1; 7 ])
        [ R.consequence_ic; R.consequence_rr; R.dthreads ])
    Workload.Registry.all

let test_golden_witnesses () =
  List.iter
    (fun (bench, rt_name, seed, threads, expected) ->
      let rt =
        match rt_name with
        | "ic" -> R.consequence_ic
        | "rr" -> R.consequence_rr
        | _ -> R.dthreads
      in
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let got = Res.deterministic_witness (R.run rt ~seed ~nthreads:threads program) in
      check_string
        (Printf.sprintf "%s/%s seed=%d t=%d" bench rt_name seed threads)
        expected got)
    golden_witnesses

(* FNV digests of the full [Run_result.to_json] (wall time, per-thread
   breakdowns, the metrics snapshot with every histogram and counter) of
   every registry workload under each of the six runtimes, at seeds 1
   and 7, 8 threads: the 300-run matrix.  The witness goldens above pin
   only what happened; these pin how every nanosecond of it was
   accounted.  The seed-7 digests of the pthreads/dthreads/dwc/rr/ic/pipe
   rows of ferret, canneal, kv_zipf and histogram, and of the ic, pipe
   and dthreads rows of the rest, date from before the charge / wait /
   sync-op / result bookkeeping moved into [Rt_core]; a change that moves
   one says why in CHANGES.md. *)
let golden_runtimes =
  [
    ("pthreads", R.pthreads);
    ("dthreads", R.dthreads);
    ("dwc", R.dwc);
    ("rr", R.consequence_rr);
    ("ic", R.consequence_ic);
    ("pipe", R.consequence_pipe);
  ]

(* (workload, seed, digests in [golden_runtimes] order) *)
let golden_accounting =
  [
    ("histogram", 1, [ "fef9f37388ab8ecb"; "3117cd0a6c5cbcac"; "645a3edbb6d9387f"; "5c75dda07c303415"; "f567c72665d5f327"; "f4b4164dbf797650" ]);
    ("histogram", 7, [ "e0753b0ebf7247d2"; "042a2e693c16ddee"; "a38c07acba6493ed"; "044082dff833a795"; "6d5155dc97908dda"; "000b1ffb0763d011" ]);
    ("kmeans", 1, [ "d77694fed3e3ecc3"; "8e7a367ee622649b"; "9301afbb09e7bde2"; "12fe0a5b7cae0bc5"; "270421225c27ffdb"; "49af5c72ab9b5b02" ]);
    ("kmeans", 7, [ "dc4ea015f4b148eb"; "17172f61e75867ff"; "7d7a6aa60fd9a1ae"; "8346e365b7e18dbc"; "8d7542cd8e373aa2"; "78c9f47fed3616a5" ]);
    ("linear_regression", 1, [ "71f30d4a4955d698"; "545491213175cf8d"; "ba103af50623ec45"; "fab4eb7945c42b9c"; "422cb58323a9ce4c"; "df2f907dd3a18450" ]);
    ("linear_regression", 7, [ "32bac82d8e4d978f"; "fd403f3208fa753c"; "0d586c219e5c6d9d"; "d1f40c250be3be13"; "b76dee7ff282b678"; "ab24488d0ceb0fe9" ]);
    ("matrix_multiply", 1, [ "d75f24b6d606bddd"; "4b5a9f7635dafdd9"; "6f91a1566ca60607"; "5f622a2ca9001f5f"; "00b232366404b875"; "1339f6773524dbb4" ]);
    ("matrix_multiply", 7, [ "f16450573b40dc87"; "be80e6aa02d83e67"; "21cb554aeee1c3b2"; "1be079b96d3c6bab"; "8cd7360c8c893026"; "5e9c6df6bdcf34ee" ]);
    ("pca", 1, [ "7910430337f7451e"; "46dc571939a19330"; "1de3cbf00ded1054"; "b0efb409bf4775b1"; "639dc74acbad7651"; "51f6a44f49a95114" ]);
    ("pca", 7, [ "6ca7a592aff7e6e9"; "91899290ed1f8d42"; "defd8dbd9ccd8d9b"; "8f84b4671c5c9e5f"; "809a240f1ed1b852"; "975b12c710f4aa60" ]);
    ("reverse_index", 1, [ "51e189c50658221a"; "054f220d9a1f0ede"; "5497a7847d8f6d3e"; "dbf403d220932d5d"; "6a3fe1981fa7d6ba"; "a48567358d05aef5" ]);
    ("reverse_index", 7, [ "7d38307c5a8baf3b"; "74659ee137735e47"; "fa3af5e9361c3952"; "3b5cfcdfb4a71052"; "3938c24eb6f7f671"; "b1ec8f0e827fbfe4" ]);
    ("string_match", 1, [ "2d71ed012f522bc4"; "8d8579a254416f2e"; "b86e0304a3f24e25"; "d48d62bad581e9f2"; "845e84106edfc919"; "3e7f4a9f03ce55a6" ]);
    ("string_match", 7, [ "80b381bb52c60a43"; "4d3ab0534e02cfc4"; "2cd9c569ed0099a5"; "b5be008df14e9c12"; "7cd58a9b918c9e65"; "e0dbc61bb056cb27" ]);
    ("word_count", 1, [ "ea6d0bc17444ac51"; "6dec8bbbb3dd3aa6"; "b3448f6e25f7e9fe"; "24833e3e57bd057c"; "f5df905dd60d331b"; "87a15d5a37a0925b" ]);
    ("word_count", 7, [ "b4d3a6c8bfef7dd3"; "56ee72b6d0f2702f"; "c29b79f683cde7a9"; "dadff471d685e4ef"; "787b2b8923b4c227"; "54bd26afa6e05dfe" ]);
    ("blackscholes", 1, [ "fe273edeea2c5b06"; "386e3700e4d4665e"; "d69d96e6833ee46b"; "3f703fe03f1b0b0b"; "22fc4399264587df"; "51166147373bdfce" ]);
    ("blackscholes", 7, [ "0fc4ac31a3917e12"; "a4b02eb408c6d09a"; "cb7ee7b3dd85901f"; "9333d78c64453bbc"; "7fdd633a6feb59c4"; "925fdd1779838433" ]);
    ("canneal", 1, [ "b04b60d4edcbe916"; "6272675c5f008b37"; "a0f71c8b4c9212b8"; "2789a80cf4192ac3"; "b5761cf507394eb7"; "4d656e2be54bdd7b" ]);
    ("canneal", 7, [ "179e40de1af7d01a"; "3c6dc599c89157ca"; "0cb5fed1bef8088a"; "ef5a5e131af98abc"; "c60fe0d51e404ff0"; "576516ed70a59432" ]);
    ("dedup", 1, [ "248e22732c057876"; "e0913fb4f342b5c7"; "2b32a49bea41dfce"; "720828d2f252ec78"; "40b6a8a18f5e3a9a"; "dc0ec23e3e923d96" ]);
    ("dedup", 7, [ "1a74f341b90c25c5"; "4e0249492be32f31"; "50c206711b557310"; "a1cd42850e1a1e61"; "cd2922509a1da3a8"; "c9b1f51faae70db7" ]);
    ("ferret", 1, [ "9f7bcce05f38e595"; "750530008c1230ce"; "5c6321176c59b1af"; "88944f8fd2f77049"; "85270943c4bce04d"; "13b2ec6243f69728" ]);
    ("ferret", 7, [ "3aeb74e1287b2736"; "9fa38a6c1c6cedd3"; "6a161ebdd6826d01"; "6e42c07134a04999"; "249cc5927acb4587"; "9df96c7d6d4747b4" ]);
    ("swaptions", 1, [ "c1e625faafeacf3a"; "fe05037c25c62164"; "386b9d51489f7b38"; "f1d961698cd9f4fb"; "b463a9b6211b8ec2"; "07fb4e6b8677208c" ]);
    ("swaptions", 7, [ "9fd16cbc9b7b4f8b"; "5826267fb7fa3f02"; "7289a919f9c30d6b"; "5731e489d9b4b0eb"; "79a7714cd0383c7e"; "93a944f6370da020" ]);
    ("barnes", 1, [ "23735eadf309f43c"; "97b156b070ff55dd"; "a040128f04684e5a"; "744bfc200448445a"; "584f3abfe19677b8"; "cc7613b6a0f60b50" ]);
    ("barnes", 7, [ "51b241ff48b6f7bb"; "928980ff8965d77f"; "57fc34095b9d72ab"; "e0c3437fe8ccbdca"; "786fddf1968f0ba9"; "f5764d5b6031478d" ]);
    ("lu_cb", 1, [ "d98084f328ee5f42"; "58877a536e897cc5"; "57cdf5297de3cb0d"; "ef16502276c6ab41"; "4f0932c810e55297"; "6703470064d75dcb" ]);
    ("lu_cb", 7, [ "ff7b8934cc474a8e"; "fb1ed04e5388ff1e"; "8f867a48781171d9"; "ee5b29e68bd7dd2e"; "f71e5fae2e622bbb"; "4d0d3b6368590fe1" ]);
    ("lu_ncb", 1, [ "7c977138cfc339b9"; "80fc6bb8bed6a896"; "f50d65e05cee8e94"; "1452ddcaf8cb144d"; "d0ffd15dcaaa0043"; "e359ab88ddb3cd54" ]);
    ("lu_ncb", 7, [ "c937855cd32db22e"; "96ce0e1bd985e1d3"; "a18af216d8b85b06"; "7be746007f78aac7"; "c9b8b316b8515750"; "338c0df766a9ce19" ]);
    ("ocean_cp", 1, [ "d246867253aa70c6"; "9d8313b97ca50bf8"; "144b8f1b36ed87eb"; "ea18ee2332c728cd"; "753c751232eacc49"; "34a805ad039aac78" ]);
    ("ocean_cp", 7, [ "e14364fb66f248f9"; "0921ead45a924090"; "447bf59eb2061b69"; "0f40dd6c429093d2"; "8f1f3f9ff642e030"; "a579f360ed469dde" ]);
    ("water_nsquared", 1, [ "dcfa5a8061bd1d22"; "5a419603f0ef47a6"; "0c1642c58241fdd9"; "98f73b3a277ef396"; "a6f7547792385042"; "5fa9b04f282ff64b" ]);
    ("water_nsquared", 7, [ "2c9d52547a1f6669"; "4e571b9f6a8e9ff8"; "10dd9dcfc38532db"; "c40b17c21b4c271f"; "0ab8760a9528f515"; "f31ebb4772213ba0" ]);
    ("water_spatial", 1, [ "a3443984dc2ac755"; "2c1b464bb57a5e47"; "961e48fc92c608f2"; "521325f3b53ac4e0"; "663f0f4869d9561d"; "3239ec8738bccdf5" ]);
    ("water_spatial", 7, [ "79f89d6d73f84495"; "acf12c564c6e1a93"; "592bd3b77e0bb177"; "179aa7afbcbdf045"; "e27bc0b83ac342da"; "4cd9e7fecf54eca9" ]);
    ("kv_uniform", 1, [ "4594959210cbe038"; "5eb5905db40b2e93"; "673826397674bc03"; "ca9854ced296c307"; "2e707ba65290e664"; "c04011ce67450786" ]);
    ("kv_uniform", 7, [ "fcaa9d3b04a07201"; "1ba30f49efe569a8"; "c5dafc83ebd8037f"; "c8c083be2dd5c72a"; "70c56f3b838e1588"; "894aa99e408b9c4e" ]);
    ("kv_zipf", 1, [ "d3542a32be919830"; "b56c27f1ccba7aa1"; "3d9be232ed2b9e7d"; "3049827d8ccb3548"; "a6746bc0f5459537"; "ceafee9ab7dbbd7f" ]);
    ("kv_zipf", 7, [ "229aabf80dda1414"; "d840dc4ee20660f3"; "3476c596739ca645"; "a966437c8c9dc1eb"; "37b67b6f0dc4f8f1"; "d399585e17c55fc3" ]);
    ("kv_hot", 1, [ "ab610677988a1c88"; "c3e9d954cb076c77"; "645da72d8a6ace8e"; "0c36a21f0c9caf84"; "9a2028c16757ce32"; "176774220f8af883" ]);
    ("kv_hot", 7, [ "602a691b40f19127"; "dae9f22eab7c7551"; "d8c46c3989a409e3"; "c3c252afc2fea460"; "4e06914f9a11ffad"; "87b9792528ffc745" ]);
    ("kv_read", 1, [ "0438b3726ec0b96e"; "2f53443de6ff01be"; "7c1c48b61a67c417"; "2c919efc4fad7162"; "028e4399922190b6"; "a94d7df9890f6cc4" ]);
    ("kv_read", 7, [ "9dcfaf9dd6f4afa4"; "f6e84c2bd1f9c0b5"; "7dbce64685c92d82"; "76ff80769d6c13e9"; "131f7c87d667d0c3"; "2b8c1da4062459dc" ]);
    ("kv_write", 1, [ "8546e137a1282107"; "0af5cf82b7b99db0"; "fa3750caf77a6f50"; "9303143146e03c56"; "aff8096cd4b7cb3d"; "83bd8c16bb45ee85" ]);
    ("kv_write", 7, [ "1d4dab0829f243c8"; "c94eb07269626c4f"; "f255424197062b10"; "0a75c6bca32e6a48"; "5d99e438c9f0df76"; "57b16e0f3c974434" ]);
    ("kv_scan", 1, [ "7a3f619a54f64f2b"; "af122d877096494a"; "9609ebbf59378323"; "e31e304fa0eff9ed"; "61a8f6d620ac31d3"; "d29892490433fb69" ]);
    ("kv_scan", 7, [ "277fa772166f86d7"; "e2ab37b48939fe2f"; "6fbedb51f358efc3"; "a747ad792ccc1a51"; "c124c848eaec8942"; "dc837b0bb9cb2b1d" ]);
  ]

let test_golden_accounting () =
  check_int "every workload at both seeds" (2 * List.length Workload.Registry.all)
    (List.length golden_accounting);
  List.iter
    (fun (bench, seed, digests) ->
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      List.iter2
        (fun (rt_name, rt) expected ->
          let r = R.run rt ~seed ~nthreads:8 program in
          let json = Obs.Json.to_string (Res.to_json r) in
          check_string
            (Printf.sprintf "%s/%s seed=%d accounting digest" bench rt_name seed)
            expected
            (Sim.Fnv.to_hex (Sim.Fnv.string Sim.Fnv.init json)))
        golden_runtimes digests)
    golden_accounting

(* [read_into] is charged exactly like [read] of the same length and
   returns the same bytes, so the twins' whole results (wall time,
   breakdowns, histograms, witnesses) are identical, and equal to what
   the [read] twin gave before [read_into] existed (digests captured
   then, seed 7, 4 threads).  Domains measure real time, so there the
   twins must agree on the witness, which is also the DES's. *)
let read_twin_golden =
  [
    (R.pthreads, "ea751dfaef6468c4");
    (R.dthreads, "d6fdd04c3947e4a1");
    (R.consequence_ic, "aa0e9f8e82306016");
    (R.consequence_pipe, "b4e9e33fef236ddb");
  ]

let test_read_into_matches_read () =
  let nthreads = 4 in
  let run runtime ~into =
    let sums = ref [||] in
    let r = R.run runtime ~seed:7 ~nthreads (read_twin ~into ~sums) in
    Array.iteri
      (fun i v ->
        check_int
          (Printf.sprintf "%s into=%b: worker %d sum" (R.name runtime) into i)
          (twin_expected nthreads) v)
      !sums;
    check_int (R.name runtime ^ " workers reported") nthreads (Array.length !sums);
    r
  in
  let digest r = Sim.Fnv.to_hex (Sim.Fnv.string Sim.Fnv.init (Obs.Json.to_string (Res.to_json r))) in
  List.iter
    (fun (runtime, golden) ->
      List.iter
        (fun into ->
          check_string
            (Printf.sprintf "%s into=%b run result digest" (R.name runtime) into)
            golden
            (digest (run runtime ~into)))
        [ false; true ])
    read_twin_golden;
  let des = Res.deterministic_witness (run R.consequence_ic ~into:false) in
  List.iter
    (fun into ->
      check_string
        (Printf.sprintf "domains into=%b witness" into)
        des
        (Res.deterministic_witness (run R.domains ~into)))
    [ false; true ]

(* Program metric keys resolve through a per-run cache of interned
   handles: a key built at run time must reach the literal key's
   counter or histogram without adding an entry. *)
let test_metric_keys_interned () =
  let core =
    Runtime.Rt_core.create ~schedule:false
      ~ex:(Sim.Exec.of_engine (Sim.Engine.create ~seed:1 ()))
      ~obs:Obs.Sink.null
  in
  let built = "kv:" ^ "commits" in
  check_bool "the built key is a distinct string" false (built == "kv:commits");
  Runtime.Rt_core.metric_incr core "kv:commits" 1;
  Runtime.Rt_core.metric_incr core built 2;
  Runtime.Rt_core.metric_incr core ("kv:" ^ "commits") 4;
  check_int "one cache entry" 1 (Runtime.Rt_core.interned_metrics core);
  Runtime.Rt_core.metric_observe core "kv:req_ns" 5;
  Runtime.Rt_core.metric_observe core ("kv:" ^ "req_ns") 7;
  check_int "one more for the histogram" 2 (Runtime.Rt_core.interned_metrics core);
  let m = Obs.Metrics.snapshot (Runtime.Rt_core.metrics core) in
  check_int "one counter" 7 (Obs.Metrics.counter_value m "kv:commits");
  check_int "nothing else" 1 (List.length m.Obs.Metrics.counters);
  match Obs.Metrics.find_hist m "kv:req_ns" with
  | Some h -> check_int "one histogram" 2 h.Obs.Metrics.count
  | None -> Alcotest.fail "kv:req_ns missing"

(* --- Real-multicore identity (Domains_rt vs the DES) ------------------ *)

let domains_witness ?(cfg = Runtime.Config.consequence_ic) ~domains ~seed program =
  Res.deterministic_witness
    (Runtime.Domains_rt.run cfg ~domains ~seed ~nthreads:8 program)

(* The tentpole claim of the real-multicore backend: running the very
   same Consequence algorithms on OCaml 5 domains yields a witness
   byte-identical to the DES, for every registry workload, across seeds
   {1,7} and domain counts {1, 2, auto}. *)
let test_domains_witness_identity () =
  List.iter
    (fun (entry : Workload.Registry.entry) ->
      List.iter
        (fun seed ->
          let des =
            Res.deterministic_witness
              (R.run R.consequence_ic ~seed ~nthreads:8 entry.program)
          in
          List.iter
            (fun domains ->
              check_string
                (Printf.sprintf "%s seed=%d domains=%d" entry.program.Api.name seed
                   domains)
                des
                (domains_witness ~domains ~seed entry.program))
            [ 1; 2; 0 ])
        [ 1; 7 ])
    Workload.Registry.all

(* Same identity for the pipelined sharded-commit configuration, on a
   subset (the full matrix above already covers the base config). *)
let test_domains_pipe_witness_identity () =
  let pipe =
    Runtime.Config.with_incremental_gc
      (Runtime.Config.with_commit_shards
         (Runtime.Config.with_pipelined_commit Runtime.Config.consequence_ic)
         8)
  in
  List.iter
    (fun bench ->
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let des =
        Res.deterministic_witness (R.run (R.Det pipe) ~seed:1 ~nthreads:8 program)
      in
      check_string
        (Printf.sprintf "%s pipe domains=2" bench)
        des
        (domains_witness ~cfg:pipe ~domains:2 ~seed:1 program))
    [ "histogram"; "word_count"; "dedup"; "barnes" ]

(* The calibration contract: the domains substrate times real work (chunk
   spins, unlocked memory operations, workspace commits and updates) into
   four wall:* counters; the DES keeps no such counter. *)
let test_domains_calibration_counters () =
  let program = (Workload.Registry.find "kmeans").Workload.Registry.program in
  let counters (r : Res.t) = r.Res.metrics.Obs.Metrics.counters in
  let dom =
    Runtime.Domains_rt.run Runtime.Config.consequence_ic ~domains:2 ~seed:1 ~nthreads:8 program
  in
  List.iter
    (fun key ->
      let v = Option.value (List.assoc_opt key (counters dom)) ~default:0 in
      check_bool (Printf.sprintf "domains %s = %d > 0" key v) true (v > 0))
    [ "wall:run_ns"; "wall:mem_ns"; "wall:commit_ns"; "wall:update_ns" ];
  let des = R.run R.consequence_ic ~seed:1 ~nthreads:8 program in
  check_bool "DES has commits" true (des.Res.commits > 0);
  check_bool "DES reports no wall:* counter" true
    (List.for_all
       (fun (key, _) -> not (String.starts_with ~prefix:"wall:" key))
       (counters des))

(* --- Self-tuning controller (lib/tune) --------------------------------- *)

let test_run_names_cover_presets () =
  (* The full resolvable runtime set must round-trip name <-> preset and
     include the two presets `all` excludes (pipe, domains). *)
  List.iter
    (fun n ->
      match R.of_name n with
      | Some rt -> check_string (n ^ " round-trips") n (R.name rt)
      | None -> Alcotest.failf "Run.names lists %S but of_name rejects it" n)
    R.names;
  check_bool "all presets listed" true
    (List.for_all (fun rt -> List.mem (R.name rt) R.names) R.all);
  check_bool "pipe listed" true (List.mem (R.name R.consequence_pipe) R.names);
  check_bool "domains listed" true (List.mem (R.name R.domains) R.names);
  check_bool "unknown name rejected" true (R.of_name "no-such-runtime" = None);
  Alcotest.(check int) "seven resolvable runtimes" 7 (List.length R.names)

(* The five runtimes of the controller's cross-runtime identity claim. *)
let tuned_runtimes params =
  let tuned cfg = Runtime.Config.with_adaptive_tuning ~params cfg in
  [
    ("ic", R.Det (tuned Runtime.Config.consequence_ic));
    ("rr", R.Det (tuned Runtime.Config.consequence_rr));
    ("pipe", R.Det (tuned Runtime.Config.consequence_pipe));
    ("dthreads", R.Det (tuned Runtime.Config.dthreads));
    ("domains", R.Domains (tuned Runtime.Config.consequence_ic));
  ]

let decision_events rt ~seed program =
  let evs = ref [] in
  let observer ev =
    match ev with Runtime.Rt_event.Tune_decision _ -> evs := ev :: !evs | _ -> ()
  in
  ignore (R.run rt ~seed ~nthreads:8 ~observer program);
  List.rev !evs

(* The acceptance property of the online controller.  Decisions are a
   pure function of (params, epoch), so on every runtime backend each
   thread applies a prefix of the predicted schedule, each decision at
   its exact milestone.  Within the consequence-ic family {ic, pipe,
   domains} the sync order is identical, hence so is each thread's
   instruction count, and the per-thread streams are byte-identical.
   Round-robin ordering (rr, dthreads) can split a pipeline's work
   differently between threads (ferret), so a thread may reach a
   different number of milestones there: only the prediction holds. *)
let check_controller_decisions_identical params bench =
  let program = (Workload.Registry.find bench).Workload.Registry.program in
  List.iter
    (fun seed ->
      let runs =
        List.map
          (fun (label, rt) -> (label, decision_events rt ~seed program))
          (tuned_runtimes params)
      in
      let reference = Tune.Controller.of_events (List.assoc "ic" runs) in
      check_bool (Printf.sprintf "%s seed=%d decisions recorded" bench seed) true
        (reference <> []);
      List.iter
        (fun (label, evs) ->
          check_bool
            (Printf.sprintf "%s seed=%d %s decisions match prediction" bench seed label)
            true
            (Tune.Controller.matches_prediction params evs);
          if label = "pipe" || label = "domains" then
            check_bool
              (Printf.sprintf "%s seed=%d %s decisions identical to ic" bench seed label)
              true
              (Tune.Controller.of_events evs = reference))
        runs)
    [ 1; 7 ]

let test_controller_decisions_identical_across_runtimes () =
  List.iter
    (check_controller_decisions_identical Runtime.Tune_ctl.default)
    [ "kmeans"; "histogram" ]

let prop_controller_decisions_identical =
  (* Random registry workloads, both seeds, all five runtimes. *)
  QCheck.Test.make ~name:"controller decisions identical across runtimes" ~count:4
    (QCheck.make (QCheck.Gen.oneofl Workload.Registry.names))
    (fun bench ->
      check_controller_decisions_identical Runtime.Tune_ctl.default bench;
      true)

(* Value-determinism with the controller enabled, mirroring the
   pipelined-commit on/off matrix: per-runtime witnesses are seed-stable,
   memory and output hashes agree across all five runtimes, and the full
   witness (including the sync-order hash, which legitimately differs
   between token-ordering disciplines) is identical within the
   consequence-ic family {ic, pipe, domains}. *)
let test_tuned_witness_matrix () =
  let params = Runtime.Tune_ctl.default in
  List.iter
    (fun bench ->
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let results =
        List.map
          (fun (label, rt) ->
            let r1 = R.run rt ~seed:1 ~nthreads:8 program in
            let r7 = R.run rt ~seed:7 ~nthreads:8 program in
            check_string
              (Printf.sprintf "%s/%s seed-stable" bench label)
              (Res.deterministic_witness r1)
              (Res.deterministic_witness r7);
            (label, r1))
          (tuned_runtimes params)
      in
      let _, ic = List.hd results in
      List.iter
        (fun (label, r) ->
          check_string
            (Printf.sprintf "%s/%s mem hash" bench label)
            ic.Res.mem_hash r.Res.mem_hash;
          check_string
            (Printf.sprintf "%s/%s output hash" bench label)
            ic.Res.output_hash r.Res.output_hash)
        (List.tl results);
      List.iter
        (fun (label, r) ->
          if label = "pipe" || label = "domains" then
            check_string
              (Printf.sprintf "%s/%s full witness = ic" bench label)
              (Res.deterministic_witness ic)
              (Res.deterministic_witness r))
        (List.tl results))
    [ "kmeans"; "histogram"; "matrix_multiply" ]

(* Cheap always-on cross-check so plain `dune runtest` exercises the
   real-parallel path (the full sweep above is `Slow). *)
let test_domains_witness_identity_quick () =
  List.iter
    (fun bench ->
      let program = (Workload.Registry.find bench).Workload.Registry.program in
      let des =
        Res.deterministic_witness (R.run R.consequence_ic ~seed:1 ~nthreads:8 program)
      in
      check_string (Printf.sprintf "%s quick domains=2" bench) des
        (domains_witness ~domains:2 ~seed:1 program))
    [ "histogram"; "string_match"; "swaptions" ]

let () =
  Alcotest.run "runtime"
    [
      ( "basic",
        [
          Alcotest.test_case "all runtimes complete" `Quick test_all_runtimes_complete;
          Alcotest.test_case "locked counter exact" `Quick test_locked_counter_exact_everywhere;
          Alcotest.test_case "same seed reproducible" `Quick test_same_seed_reproducible;
          Alcotest.test_case "per-thread names" `Quick test_per_thread_names;
          Alcotest.test_case "best over threads" `Quick test_best_over_threads;
          Alcotest.test_case "config preset invariants" `Quick test_config_presets_invariants;
          Alcotest.test_case "single global lock aliases" `Quick test_single_global_lock_aliases;
          Alcotest.test_case "breakdown bounded" `Quick test_breakdown_covers_wall_time;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "det runtimes seed-invariant" `Quick
            test_det_runtimes_seed_invariant;
          Alcotest.test_case "pthreads diverges" `Quick test_pthreads_diverges_across_seeds;
          Alcotest.test_case "stable per thread count" `Quick
            test_det_runtimes_thread_count_changes_allowed;
          QCheck_alcotest.to_alcotest prop_random_programs_deterministic;
          QCheck_alcotest.to_alcotest prop_locked_counter_memory_agrees;
        ] );
      ( "synchronization",
        [
          Alcotest.test_case "barrier visibility" `Quick test_barrier_visibility;
          Alcotest.test_case "producer/consumer" `Quick test_producer_consumer;
          Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock_raises;
          Alcotest.test_case "self deadlock detected" `Quick test_self_deadlock_detected;
          Alcotest.test_case "uninitialized barrier" `Quick test_uninitialized_barrier_raises;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "plain rmw atomic under pthreads" `Quick
            test_plain_rmw_atomic_under_pthreads;
          Alcotest.test_case "plain rmw loses updates deterministically" `Quick
            test_plain_rmw_loses_updates_deterministically;
          Alcotest.test_case "atomic rmw exact everywhere" `Quick test_atomic_rmw_exact_everywhere;
        ] );
      ( "ad-hoc-sync",
        [
          Alcotest.test_case "stuck without chunk limit" `Slow test_flag_spin_stuck_without_limit;
          Alcotest.test_case "terminates with chunk limit" `Quick
            test_flag_spin_terminates_with_limit;
          Alcotest.test_case "fine under pthreads" `Quick test_flag_spin_fine_under_pthreads;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "coarsening reduces commits" `Quick test_coarsening_reduces_commits;
          Alcotest.test_case "static coarsening levels" `Quick test_static_coarsening_levels_run;
          Alcotest.test_case "coarsening preserves results" `Quick
            test_coarsening_preserves_results;
          Alcotest.test_case "ablations deterministic" `Quick test_ablation_configs_deterministic;
          Alcotest.test_case "thread pool reuse" `Quick test_thread_pool_reuse;
          Alcotest.test_case "counter jitter runs" `Quick test_counter_jitter_still_runs;
          Alcotest.test_case "IC beats RR on mismatch" `Quick test_ic_beats_rr_on_mismatched_rates;
        ] );
      ( "observability",
        [
          Alcotest.test_case "instrumentation is determinism-neutral" `Quick
            test_obs_neutrality;
          Alcotest.test_case "observer events in token order" `Quick
            test_observer_token_order;
          Alcotest.test_case "commit hash observer-only" `Quick
            test_commit_hash_observer_only;
          Alcotest.test_case "program metric keys interned" `Quick test_metric_keys_interned;
        ] );
      ( "read-path",
        [ Alcotest.test_case "read_into matches read" `Quick test_read_into_matches_read ] );
      ( "golden",
        [
          Alcotest.test_case "witnesses match pre-rewrite baseline" `Slow test_golden_witnesses;
          Alcotest.test_case "accounting matches pre-refactor baseline" `Quick
            test_golden_accounting;
          Alcotest.test_case "pipelined sharded commit witness-identical" `Slow
            test_parallel_commit_witness_identity;
        ] );
      ( "tune",
        [
          Alcotest.test_case "Run.names covers every preset" `Quick
            test_run_names_cover_presets;
          Alcotest.test_case "decisions identical across five runtimes" `Quick
            test_controller_decisions_identical_across_runtimes;
          QCheck_alcotest.to_alcotest prop_controller_decisions_identical;
          Alcotest.test_case "tuned witness matrix" `Quick test_tuned_witness_matrix;
        ] );
      ( "domains",
        [
          Alcotest.test_case "witness-identical to DES (quick)" `Quick
            test_domains_witness_identity_quick;
          Alcotest.test_case "wall:* calibration counters only on domains" `Quick
            test_domains_calibration_counters;
          Alcotest.test_case "witness-identical across seeds and domain counts" `Slow
            test_domains_witness_identity;
          Alcotest.test_case "pipelined config witness-identical" `Slow
            test_domains_pipe_witness_identity;
        ] );
    ]

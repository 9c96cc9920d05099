type op = Work of int | Locked of int | Write of int * int | Barrier

(* The per-worker script is a pure function of (seed, worker index). *)
let script ~seed ~worker ~rounds =
  let p = Sim.Prng.create ~seed:(seed + (1000 * worker)) in
  List.init rounds (fun _ ->
      match Sim.Prng.int p ~bound:4 with
      | 0 -> Work (Sim.Prng.int p ~bound:2_000 + 100)
      | 1 -> Locked (Sim.Prng.int p ~bound:3)
      | 2 -> Write (256 + (8 * Sim.Prng.int p ~bound:64), Sim.Prng.int p ~bound:1_000_000)
      | _ -> Barrier)

let run_script (w : Api.ops) ops =
  List.iter
    (fun op ->
      match op with
      | Work n -> w.Api.work n
      | Locked l ->
          w.Api.lock l;
          let a = 8 * (l + 1) in
          w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
          w.Api.unlock l
      | Write (addr, v) -> w.Api.write_int ~addr v
      | Barrier -> w.Api.barrier_wait 0)
    ops

let make ~seed ?(rounds = 12) () =
  Api.make
    ~name:(Printf.sprintf "synthetic-%d" seed)
    ~description:"seeded random mix of work, locks, writes and barriers" ~heap_pages:32
    ~page_size:64
    (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            let body = script ~seed ~worker:i ~rounds in
            let barriers =
              List.length (List.filter (function Barrier -> true | _ -> false) body)
            in
            ops.Api.spawn (fun w ->
                run_script w body;
                (* Everyone must pass the barrier [rounds] times in total. *)
                for _ = barriers + 1 to rounds do
                  w.Api.barrier_wait 0
                done))
      in
      List.iter ops.Api.join workers;
      let sum = Wl_util.checksum ops ~addr:8 ~words:3 in
      ops.Api.log_output (Printf.sprintf "synthetic=%d" sum))

let locks = 8

let make_lock_heavy ~seed ?(rounds = 40) () =
  Api.make
    ~name:(Printf.sprintf "synthetic-locks-%d" seed)
    ~description:"seeded dense short critical sections (coarsening-sensitive)" ~heap_pages:32
    ~page_size:64
    (fun ~nthreads ops ->
      let workers =
        List.init nthreads (fun i ->
            let p = Sim.Prng.create ~seed:(seed + (7_777 * i)) in
            let pairs =
              List.init rounds (fun _ ->
                  (Sim.Prng.int p ~bound:locks, Sim.Prng.int p ~bound:4_000 + 500))
            in
            ops.Api.spawn (fun w ->
                List.iter
                  (fun (l, gap) ->
                    w.Api.work gap;
                    w.Api.lock l;
                    let a = 8 * (l + 1) in
                    w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
                    w.Api.unlock l)
                  pairs))
      in
      List.iter ops.Api.join workers;
      let sum = Wl_util.checksum ops ~addr:8 ~words:locks in
      ops.Api.log_output (Printf.sprintf "locks=%d" sum))

let op_mix ~seed ~rounds =
  let body = script ~seed ~worker:0 ~rounds in
  let count f = List.length (List.filter f body) in
  ( count (function Work _ -> true | _ -> false),
    count (function Locked _ -> true | _ -> false),
    count (function Write _ -> true | _ -> false),
    count (function Barrier -> true | _ -> false) )

let page = 256
let netlist_pages = 640
let netlist_base = page * 16 (* shared netlist region starts after the result cells *)

let make ?(scale = 1.0) () =
  Api.make ~name:"canneal" ~description:"annealing swaps across shared pages, barrier-heavy"
    ~heap_pages:(16 + netlist_pages) ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let iters = Wl_util.scaled scale 8 in
      let swaps = Wl_util.scaled scale 36 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          let p = Sim.Prng.create ~seed:(7_000 + i) in
          for iter = 1 to iters do
            w.Api.work (Wl_util.work_amount scale 6_000);
            (* Swap elements scattered across the netlist.  Odd and even
               threads use different halves of each 16-byte slot; writes
               within a parity class may collide, modelling canneal's racy
               swaps (resolved deterministically by byte merging). *)
            for _ = 1 to swaps do
              let pg = Sim.Prng.int p ~bound:netlist_pages in
              let slot = Sim.Prng.int p ~bound:(page / 16 / 2) in
              let addr = netlist_base + (pg * page) + (16 * ((slot * 2) mod (page / 16))) in
              let addr = addr + if i land 1 = 1 then 8 else 0 in
              w.Api.write_int ~addr ((i * 1000) + iter)
            done;
            w.Api.barrier_wait 0
          done;
          w.Api.write_int ~addr:(8 * i) (i + iters));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "canneal=%d" sum))

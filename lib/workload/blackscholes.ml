let page = 256
let priv_base i = page * (8 + (4 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"blackscholes" ~description:"data-parallel pricing, barrier per block"
    ~heap_pages:384 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for block = 1 to Wl_util.scaled scale 5 do
            w.Api.work (Wl_util.work_amount scale 9_500);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:512 ~tag:(i + block);
            w.Api.barrier_wait 0
          done;
          w.Api.write_int ~addr:(8 * i) (i * 7));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "bscholes=%d" sum))

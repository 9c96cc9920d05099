let page = 256
let matrix_base = page * 16
let block_pages = 4 (* per-thread contiguous block per step *)

let make ?(scale = 1.0) () =
  Api.make ~name:"lu_cb" ~description:"blocked LU, contiguous (conflict-free) blocks, barrier-heavy"
    ~heap_pages:1024 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let steps = Wl_util.scaled scale 10 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for step = 1 to steps do
            w.Api.work (Wl_util.work_amount scale 4_500);
            (* Update this thread's contiguous block: whole private pages. *)
            let base = matrix_base + (page * block_pages * i) in
            for pg = 0 to block_pages - 1 do
              Wl_util.fill_region w ~addr:(base + (page * pg)) ~bytes:page ~tag:(i + step)
            done;
            w.Api.barrier_wait 0
          done;
          w.Api.write_int ~addr:(8 * i) (i + steps));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "lu_cb=%d" sum))

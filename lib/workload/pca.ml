let page = 256
let cov_base = 0
let cov_words = 32
let priv_base i = page * (16 + (4 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"pca" ~description:"mean phase, barrier, covariance phase"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          (* Phase 1: row means over a private slice. *)
          for c = 1 to Wl_util.scaled scale 6 do
            w.Api.work (Wl_util.work_amount scale 5_000);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:512 ~tag:(i + c)
          done;
          w.Api.barrier_wait 0;
          (* Phase 2: covariance folds into shared cells. *)
          for c = 1 to Wl_util.scaled scale 6 do
            w.Api.work (Wl_util.work_amount scale 4_000);
            w.Api.lock (c mod 2);
            let a = cov_base + (8 * (((i * 7) + c) mod cov_words)) in
            w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + c);
            w.Api.unlock (c mod 2)
          done;
          w.Api.barrier_wait 0);
      let sum = Wl_util.checksum ops ~addr:cov_base ~words:cov_words in
      ops.Api.log_output (Printf.sprintf "pca=%d" sum))

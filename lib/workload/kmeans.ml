let page = 256
let centroids = 0 (* 16 centroid cells *)
let ncent = 16
let priv_base i = page * (16 + (4 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"kmeans" ~description:"iterative clustering: assign, reduce, barrier"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let iters = Wl_util.scaled scale 10 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for iter = 1 to iters do
            (* Assignment phase: compute-heavy, private writes. *)
            w.Api.work (Wl_util.work_amount scale 7_000);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:256 ~tag:(i + iter);
            (* Reduction: fold partial sums into shared centroids, one
               lock per centroid group (as real kmeans locks clusters). *)
            for c = 0 to 3 do
              let cent = ((i + c) * 5) mod ncent in
              w.Api.lock (cent mod 8);
              let a = centroids + (8 * cent) in
              w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + iter);
              w.Api.unlock (cent mod 8)
            done;
            w.Api.barrier_wait 0
          done);
      let sum = Wl_util.checksum ops ~addr:centroids ~words:ncent in
      ops.Api.log_output (Printf.sprintf "kmeans=%d" sum))

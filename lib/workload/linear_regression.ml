let page = 256
let results = 0
let priv_base i = page * (8 + (2 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"linear_regression"
    ~description:"very short run; startup costs dominate" ~heap_pages:128 ~page_size:page
    (fun ~nthreads ops ->
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          (* One small scan, a couple of private writes, one locked fold. *)
          Wl_util.chunked_work w ~total:(Wl_util.work_amount scale 4_000)
            ~chunk:(Wl_util.work_amount scale 1_500);
          Wl_util.fill_region w ~addr:(priv_base i) ~bytes:64 ~tag:i;
          Wl_util.locked_add w ~lock:0 ~addr:results (i + 1));
      ops.Api.log_output
        (Printf.sprintf "lreg=%d" (ops.Api.read_int ~addr:results)))

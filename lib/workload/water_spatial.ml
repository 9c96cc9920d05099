let page = 256
let boundary_base = 0
let boundary_words = 32
let priv_base i = page * (16 + (3 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"water_spatial"
    ~description:"spatial decomposition: mostly private compute, few boundary locks, barriers"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let steps = Wl_util.scaled scale 6 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for step = 1 to steps do
            (* Intra-box forces: private. *)
            w.Api.work (Wl_util.work_amount scale 5_500);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:256 ~tag:(i + step);
            (* A few boundary-molecule updates. *)
            for b = 0 to 2 do
              w.Api.lock ((i + b) mod 4);
              let a = boundary_base + (8 * (((i * 5) + b + step) mod boundary_words)) in
              w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
              w.Api.unlock ((i + b) mod 4)
            done;
            w.Api.barrier_wait 0
          done);
      let sum = Wl_util.checksum ops ~addr:boundary_base ~words:boundary_words in
      ops.Api.log_output (Printf.sprintf "water_sp=%d" sum))

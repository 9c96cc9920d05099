let page = 256
let mol_base = 0
let mol_words = 256
let nmol_locks = 64
let priv_base i = page * (16 + (2 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"water_nsquared"
    ~description:"fine-grained per-molecule locks, short critical sections, per-step barriers"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let steps = Wl_util.scaled scale 4 in
      let interactions = Wl_util.scaled scale 24 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for step = 1 to steps do
            for inter = 1 to interactions do
              w.Api.work (Wl_util.work_amount scale 600);
              let mol = ((i * 11) + (inter * 7) + step) mod nmol_locks in
              w.Api.lock mol;
              let a = mol_base + (8 * ((mol * 4) + (inter mod 4))) in
              w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
              w.Api.unlock mol
            done;
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:128 ~tag:(i + step);
            w.Api.barrier_wait 0
          done);
      let sum = Wl_util.checksum ops ~addr:mol_base ~words:mol_words in
      ops.Api.log_output (Printf.sprintf "water_ns=%d" sum))

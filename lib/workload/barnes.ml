let page = 256
let cells_base = 0
let cell_words = 128
let priv_base i = page * (16 + (4 * i))
let ncell_locks = 32

let make ?(scale = 1.0) () =
  Api.make ~name:"barnes" ~description:"Barnes-Hut: tree build with cell locks, force phase, barriers"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let steps = Wl_util.scaled scale 6 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for step = 1 to steps do
            (* Tree build: insert bodies under per-cell locks. *)
            for body = 1 to Wl_util.scaled scale 6 do
              w.Api.work (Wl_util.work_amount scale 1_500);
              let cell = ((i * 3) + (body * 5) + step) mod ncell_locks in
              w.Api.lock cell;
              let a = cells_base + (8 * ((cell * 4) + (body mod 4))) in
              w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
              w.Api.unlock cell
            done;
            w.Api.barrier_wait 0;
            (* Force computation: private, compute-heavy. *)
            w.Api.work (Wl_util.work_amount scale 6_000);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:384 ~tag:(i + step);
            w.Api.barrier_wait 0
          done);
      let sum = Wl_util.checksum ops ~addr:cells_base ~words:cell_words in
      ops.Api.log_output (Printf.sprintf "barnes=%d" sum))

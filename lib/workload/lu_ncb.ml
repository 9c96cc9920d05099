let page = 256
let matrix_base = page * 16
let matrix_pages = 40

let make ?(scale = 1.0) () =
  Api.make ~name:"lu_ncb"
    ~description:"blocked LU, interleaved (conflicting) element layout, barrier-heavy"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let steps = Wl_util.scaled scale 8 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for step = 1 to steps do
            w.Api.work (Wl_util.work_amount scale 9_000);
            (* Non-contiguous: thread i owns every nthreads-th 8-byte
               element, so all threads dirty all matrix pages. *)
            for pg = 0 to matrix_pages - 1 do
              let slots = page / 8 in
              let k = ref i in
              while !k < slots do
                w.Api.write_int
                  ~addr:(matrix_base + (pg * page) + (8 * !k))
                  ((i * 100) + step);
                k := !k + nthreads
              done
            done;
            w.Api.barrier_wait 0
          done;
          w.Api.write_int ~addr:(8 * i) (i + steps));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "lu_ncb=%d" sum))

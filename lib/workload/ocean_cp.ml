let page = 256
let grid_base = page * 16
let band_pages = 10 (* pages per thread band, including shared boundary pages *)

let make ?(scale = 1.0) () =
  Api.make ~name:"ocean_cp" ~description:"grid relaxation, many barriers, large propagation"
    ~heap_pages:1024 ~page_size:page (fun ~nthreads ops ->
      ops.Api.barrier_init 0 nthreads;
      let phases = Wl_util.scaled scale 16 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for phase = 1 to phases do
            w.Api.work (Wl_util.work_amount scale 8_000);
            let band = grid_base + (page * (band_pages - 1) * i) in
            (* Interior pages: private to this thread's band. *)
            for pg = 0 to band_pages - 2 do
              Wl_util.fill_region w ~addr:(band + (page * pg)) ~bytes:page ~tag:(i + phase)
            done;
            (* Boundary row: the first page of the next band, shared with
               the neighbour; each writes its own half. *)
            if i < nthreads - 1 then begin
              let boundary = grid_base + (page * (band_pages - 1) * (i + 1)) in
              Wl_util.fill_region w ~addr:(boundary + (page / 2)) ~bytes:(page / 4) ~tag:(i + phase)
            end;
            w.Api.barrier_wait 0
          done;
          w.Api.write_int ~addr:(8 * i) (i * phases));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "ocean_cp=%d" sum))

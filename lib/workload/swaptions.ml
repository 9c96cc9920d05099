let page = 256
let priv_base i = page * (8 + (4 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"swaptions" ~description:"Monte-Carlo pricing over private state"
    ~heap_pages:384 ~page_size:page (fun ~nthreads ops ->
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for trial = 1 to Wl_util.scaled scale 6 do
            w.Api.work (Wl_util.work_amount scale 8_500);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:256 ~tag:(i + trial)
          done;
          w.Api.write_int ~addr:(8 * i) ((i * 31) + 11));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "swaptions=%d" sum))

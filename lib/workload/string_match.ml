let make ?(scale = 1.0) () =
  Api.make ~name:"string_match" ~description:"pure scanning compute, no synchronization"
    ~heap_pages:128 ~page_size:256 (fun ~nthreads ops ->
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          Wl_util.chunked_work w
            ~total:(Wl_util.work_amount scale 45_000)
            ~chunk:(Wl_util.work_amount scale 9_000);
          (* Record the (tiny) per-thread match count. *)
          w.Api.write_int ~addr:(8 * i) (i + 3));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "smatch=%d" sum))

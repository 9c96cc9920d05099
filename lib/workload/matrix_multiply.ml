let page = 256
let priv_base i = page * (8 + (8 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"matrix_multiply" ~description:"dense compute over private output tiles"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for tile = 1 to Wl_util.scaled scale 10 do
            w.Api.work (Wl_util.work_amount scale 9_000);
            Wl_util.fill_region w
              ~addr:(priv_base i + (256 * ((tile - 1) mod 8)))
              ~bytes:256 ~tag:(i + tile)
          done;
          (* Per-thread result cell: disjoint, no lock needed. *)
          w.Api.write_int ~addr:(8 * i) (i * 1000));
      let sum = Wl_util.checksum ops ~addr:0 ~words:nthreads in
      ops.Api.log_output (Printf.sprintf "mm=%d" sum))

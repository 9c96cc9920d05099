let page = 256
let shared_bins = 0 (* 24 bins of 8 bytes at the heap base *)
let bins = 24
let priv_base i = page * (16 + (4 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"histogram" ~description:"parallel pixel binning, single merge lock"
    ~heap_pages:512 ~page_size:page (fun ~nthreads ops ->
      let scan_chunks = Wl_util.scaled scale 16 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          (* Scan: pure compute plus private bin updates. *)
          for c = 1 to scan_chunks do
            w.Api.work (Wl_util.work_amount scale 6_000);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:(8 * bins) ~tag:(i + c)
          done;
          (* Merge private bins into the shared histogram. *)
          w.Api.lock 0;
          for b = 0 to bins - 1 do
            let v = w.Api.read_int ~addr:(shared_bins + (8 * b)) in
            w.Api.write_int ~addr:(shared_bins + (8 * b)) (v + i + b)
          done;
          w.Api.unlock 0);
      let sum = Wl_util.checksum ops ~addr:shared_bins ~words:bins in
      ops.Api.log_output (Printf.sprintf "histogram=%d" sum))

let page = 256
let table_base = 0
let table_words = 48
let priv_base i = page * (12 + (3 * i))

let make ?(scale = 1.0) () =
  Api.make ~name:"word_count" ~description:"parallel scan, locked merge into shared table"
    ~heap_pages:384 ~page_size:page (fun ~nthreads ops ->
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          (* Scan phase: private counting. *)
          for c = 1 to Wl_util.scaled scale 8 do
            w.Api.work (Wl_util.work_amount scale 5_500);
            Wl_util.fill_region w ~addr:(priv_base i) ~bytes:384 ~tag:(i + c)
          done;
          (* Merge phase: batched updates to the shared table. *)
          for batch = 1 to Wl_util.scaled scale 6 do
            w.Api.work (Wl_util.work_amount scale 800);
            w.Api.lock (batch mod 4);
            for k = 0 to 2 do
              let a = table_base + (8 * (((i * 17) + (batch * 5) + k) mod table_words)) in
              w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1)
            done;
            w.Api.unlock (batch mod 4)
          done);
      let sum = Wl_util.checksum ops ~addr:table_base ~words:table_words in
      ops.Api.log_output (Printf.sprintf "wcount=%d" sum))

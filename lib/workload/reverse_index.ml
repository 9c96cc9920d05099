let page = 256
let index_base = 0
let index_words = 64
let nlocks = 8

let make ?(scale = 1.0) () =
  Api.make ~name:"reverse_index"
    ~description:"high-rate short critical sections on shared index locks" ~heap_pages:256
    ~page_size:page (fun ~nthreads ops ->
      let links = Wl_util.scaled scale 60 in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for link = 1 to links do
            (* Parse a little HTML... *)
            w.Api.work (Wl_util.work_amount scale 500);
            (* ...then insert the link under the bucket lock. *)
            let bucket = ((i * 13) + (link * 7)) mod nlocks in
            w.Api.lock bucket;
            let a = index_base + (8 * (((i + link) * 11) mod index_words)) in
            w.Api.write_int ~addr:a (w.Api.read_int ~addr:a + 1);
            w.Api.unlock bucket
          done);
      let sum = Wl_util.checksum ops ~addr:index_base ~words:index_words in
      ops.Api.log_output (Printf.sprintf "rindex=%d" sum))

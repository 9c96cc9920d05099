let page = 256
let results_base = page * 4
let result_slots = 128
let scratch_base = page * 64 (* per-thread feature buffers, 2 pages each *)
let scratch_pages = 2
let qa_base = page * 32
let qb_base = page * 36
let qc_base = page * 40

let qa = Wl_util.queue_make ~base:qa_base ~capacity:4 ~lock:0 ~nonfull:0 ~nonempty:1
let qb = Wl_util.queue_make ~base:qb_base ~capacity:4 ~lock:1 ~nonfull:2 ~nonempty:3
let qc = Wl_util.queue_make ~base:qc_base ~capacity:4 ~lock:2 ~nonfull:4 ~nonempty:5

let poison = 0
let stage1_name = "ferret-seg"

let make ?(scale = 1.0) () =
  Api.make ~name:"ferret" ~description:"4-stage similarity-search pipeline"
    ~heap_pages:192 ~page_size:page (fun ~nthreads ops ->
      let items = Wl_util.scaled scale 16 in
      (* One segmenter; the rest split across extract / index / rank. *)
      let rest = max 3 (nthreads - 1) in
      let n_extract = max 1 (rest / 3) in
      let n_index = max 1 (rest / 3) in
      let n_rank = max 1 (rest - n_extract - n_index) in
      let seg =
        ops.Api.spawn ~name:stage1_name (fun w ->
            (* High-rate segmentation: tiny chunks, many queue locks. *)
            for j = 1 to items do
              w.Api.work (Wl_util.work_amount scale 400);
              Wl_util.queue_push w qa j
            done;
            for _ = 1 to n_extract do
              Wl_util.queue_push w qa poison
            done)
      in
      let stage ~name ~count ~inq ~outq ~work_ns ~downstream =
        List.init count (fun k ->
            ops.Api.spawn ~name:(Printf.sprintf "%s%d" name k) (fun w ->
                let continue = ref true in
                while !continue do
                  let item = Wl_util.queue_pop w inq in
                  if item = poison then continue := false
                  else begin
                    w.Api.work (Wl_util.work_amount scale work_ns);
                    (* Per-item feature buffer: private pages whose commits
                       ride the queue unlocks.  TSO broadcasts them to all
                       threads; LRC would move them only along the queue's
                       happens-before edges (Fig 16). *)
                    Wl_util.fill_region w
                      ~addr:(scratch_base + (page * scratch_pages * w.Api.tid))
                      ~bytes:(page * scratch_pages) ~tag:item;
                    match outq with
                    | Some q -> Wl_util.queue_push w q item
                    | None ->
                        (* Rank stage: record the match score. *)
                        let slot = item mod result_slots in
                        w.Api.lock 3;
                        w.Api.write_int ~addr:(results_base + (8 * slot))
                          (w.Api.read_int ~addr:(results_base + (8 * slot)) + item);
                        w.Api.unlock 3
                  end
                done;
                ignore downstream))
      in
      let extracts =
        stage ~name:"ferret-extract" ~count:n_extract ~inq:qa ~outq:(Some qb)
          ~work_ns:8_000 ~downstream:n_index
      in
      let indexes =
        stage ~name:"ferret-index" ~count:n_index ~inq:qb ~outq:(Some qc) ~work_ns:11_000
          ~downstream:n_rank
      in
      let ranks =
        stage ~name:"ferret-rank" ~count:n_rank ~inq:qc ~outq:None ~work_ns:13_000 ~downstream:0
      in
      ops.Api.join seg;
      List.iter ops.Api.join extracts;
      for _ = 1 to n_index do
        Wl_util.queue_push ops qb poison
      done;
      List.iter ops.Api.join indexes;
      for _ = 1 to n_rank do
        Wl_util.queue_push ops qc poison
      done;
      List.iter ops.Api.join ranks;
      let sum = Wl_util.checksum ops ~addr:results_base ~words:result_slots in
      ops.Api.log_output (Printf.sprintf "ferret=%d" sum))

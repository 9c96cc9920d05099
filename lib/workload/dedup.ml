let page = 256
let results_base = page * 4
let q1_base = page * 32
let q2_base = page * 36

(* Locks 0/1 protect the two queues; conds 0-3 are their nonfull/nonempty
   pairs. *)
let q1 = Wl_util.queue_make ~base:q1_base ~capacity:8 ~lock:0 ~nonfull:0 ~nonempty:1
let q2 = Wl_util.queue_make ~base:q2_base ~capacity:8 ~lock:1 ~nonfull:2 ~nonempty:3

let poison = 0 (* item ids are >= 1; 0 terminates a consumer *)

let make ?(scale = 1.0) () =
  Api.make ~name:"dedup" ~description:"3-stage pipeline over bounded queues"
    ~heap_pages:192 ~page_size:page (fun ~nthreads ops ->
      let items = Wl_util.scaled scale (12 * max 1 (nthreads / 3)) in
      (* Split threads across stages: fragment producers, chunk hashers,
         compressors.  At least one thread per stage. *)
      let n2 = max 1 (nthreads / 3) in
      let n3 = max 1 (nthreads / 3) in
      let n1 = max 1 (nthreads - n2 - n3) in
      let producers =
        List.init n1 (fun k ->
            ops.Api.spawn ~name:(Printf.sprintf "dedup-frag%d" k) (fun w ->
                let count = (items / n1) + if k < items mod n1 then 1 else 0 in
                for j = 1 to count do
                  w.Api.work (Wl_util.work_amount scale 1_800);
                  Wl_util.queue_push w q1 ((k * 10_000) + j)
                done))
      in
      let hashers =
        List.init n2 (fun k ->
            ops.Api.spawn ~name:(Printf.sprintf "dedup-hash%d" k) (fun w ->
                let continue = ref true in
                while !continue do
                  let item = Wl_util.queue_pop w q1 in
                  if item = poison then continue := false
                  else begin
                    w.Api.work (Wl_util.work_amount scale 4_500);
                    Wl_util.queue_push w q2 item
                  end
                done))
      in
      let compressors =
        List.init n3 (fun k ->
            ops.Api.spawn ~name:(Printf.sprintf "dedup-zip%d" k) (fun w ->
                let continue = ref true in
                while !continue do
                  let item = Wl_util.queue_pop w q2 in
                  if item = poison then continue := false
                  else begin
                    w.Api.work (Wl_util.work_amount scale 6_000);
                    (* Record the item's compressed size in its own slot:
                       commutative, so the checksum is schedule-independent. *)
                    let slot = ((item mod 10_000) + (item / 10_000)) mod 96 in
                    w.Api.lock 2;
                    w.Api.write_int ~addr:(results_base + (8 * slot))
                      (w.Api.read_int ~addr:(results_base + (8 * slot)) + item);
                    w.Api.unlock 2
                  end
                done))
      in
      List.iter ops.Api.join producers;
      (* Poison the hashers, then wait for them before poisoning stage 3. *)
      for _ = 1 to n2 do
        Wl_util.queue_push ops q1 poison
      done;
      List.iter ops.Api.join hashers;
      for _ = 1 to n3 do
        Wl_util.queue_push ops q2 poison
      done;
      List.iter ops.Api.join compressors;
      let sum = Wl_util.checksum ops ~addr:results_base ~words:96 in
      ops.Api.log_output (Printf.sprintf "dedup=%d" sum))

let scaled s n = max 1 (int_of_float (Float.round (s *. float_of_int n)))

(* Calibration multiplier for local work (see mli). *)
let work_multiplier = 10

let work_amount s n = scaled s n * work_multiplier

let chunked_work (ops : Api.ops) ~total ~chunk =
  if chunk <= 0 then invalid_arg "chunked_work: chunk must be > 0";
  let rec go remaining =
    if remaining > 0 then begin
      ops.Api.work (min chunk remaining);
      go (remaining - chunk)
    end
  in
  go total

let fill_region (ops : Api.ops) ~addr ~bytes ~tag =
  if bytes > 0 then ops.Api.write ~addr (Bytes.make bytes (Char.chr (tag land 0xff)))

let locked_add (ops : Api.ops) ~lock ~addr delta =
  ops.Api.lock lock;
  let v = ops.Api.read_int ~addr in
  ops.Api.write_int ~addr (v + delta);
  ops.Api.unlock lock

let spawn_workers (ops : Api.ops) ~n ?name body =
  let handles =
    List.init n (fun i ->
        match name with
        | Some f -> ops.Api.spawn ~name:(f i) (body i)
        | None -> ops.Api.spawn (body i))
  in
  List.iter ops.Api.join handles

let checksum (ops : Api.ops) ~addr ~words =
  let sum = ref 0 in
  for w = 0 to words - 1 do
    sum := !sum + ops.Api.read_int ~addr:(addr + (8 * w))
  done;
  !sum

type queue = {
  q_base : int;
  q_capacity : int;
  q_lock : Api.mutex;
  q_nonfull : Api.cond;
  q_nonempty : Api.cond;
}

let queue_make ~base ~capacity ~lock ~nonfull ~nonempty =
  if capacity <= 0 then invalid_arg "queue_make: capacity must be > 0";
  { q_base = base; q_capacity = capacity; q_lock = lock; q_nonfull = nonfull; q_nonempty = nonempty }

let q_head q = q.q_base
let q_tail q = q.q_base + 8
let q_slot q i = q.q_base + 16 + (8 * (i mod q.q_capacity))

let queue_push (ops : Api.ops) q v =
  if v < 0 then invalid_arg "queue_push: negative value";
  ops.Api.lock q.q_lock;
  while ops.Api.read_int ~addr:(q_tail q) - ops.Api.read_int ~addr:(q_head q) >= q.q_capacity do
    ops.Api.cond_wait q.q_nonfull q.q_lock
  done;
  let tail = ops.Api.read_int ~addr:(q_tail q) in
  ops.Api.write_int ~addr:(q_slot q tail) v;
  ops.Api.write_int ~addr:(q_tail q) (tail + 1);
  ops.Api.cond_signal q.q_nonempty;
  ops.Api.unlock q.q_lock

let queue_pop (ops : Api.ops) q =
  ops.Api.lock q.q_lock;
  while ops.Api.read_int ~addr:(q_tail q) = ops.Api.read_int ~addr:(q_head q) do
    ops.Api.cond_wait q.q_nonempty q.q_lock
  done;
  let head = ops.Api.read_int ~addr:(q_head q) in
  let v = ops.Api.read_int ~addr:(q_slot q head) in
  ops.Api.write_int ~addr:(q_head q) (head + 1);
  ops.Api.cond_signal q.q_nonfull;
  ops.Api.unlock q.q_lock;
  v

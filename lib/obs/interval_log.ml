let chunk_bytes = 2040

(* A header byte and five varints of at most 9 bytes (63 bits, 7 per
   byte): a chunk with less room left than this is closed. *)
let max_record = 1 + (5 * 9)

(* Headers use the low seven bits only, so no header reads 0xff. *)
let sentinel = '\xff'
let gap_flag = 0x10
let step_flag = 0x20
let waker_flag = 0x40

(* Unsigned LEB128 of the int's 63 bits: a negative int takes 9 bytes. *)
let rec put b pos v =
  if v land lnot 0x7f = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0x7f lor 0x80));
    put b (pos + 1) (v lsr 7)
  end

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* Each tid's previous (t1, chunk, waker), as three ints.  Tids in
   [0, dense_tids) index [dense] directly; any other tid keeps its own
   triple in [sparse]. *)
type prev = { mutable dense : int array; sparse : (int, int array) Hashtbl.t }

let dense_tids = 4096
let new_prev () = { dense = [||]; sparse = Hashtbl.create 1 }
let is_dense tid = tid >= 0 && tid < dense_tids

(* Offset of [tid]'s triple in the array {!prev_of} returns. *)
let off tid = if is_dense tid then 3 * tid else 0

let grow p tid =
  let old = Array.length p.dense in
  let a = Array.make (max 24 (max (3 * (tid + 1)) (2 * old))) 0 in
  Array.blit p.dense 0 a 0 old;
  for i = old / 3 to (Array.length a / 3) - 1 do
    a.((3 * i) + 2) <- -1
  done;
  p.dense <- a

let prev_of p tid =
  if is_dense tid then begin
    if 3 * tid >= Array.length p.dense then grow p tid;
    p.dense
  end
  else
    match Hashtbl.find_opt p.sparse tid with
    | Some a -> a
    | None ->
        let a = [| 0; 0; -1 |] in
        Hashtbl.add p.sparse tid a;
        a

type t = {
  mutable chunks : Bytes.t array; (* [0, nchunks) in use *)
  mutable nchunks : int;
  mutable cur : Bytes.t; (* chunks.(nchunks - 1) *)
  mutable pos : int; (* next free byte of [cur] *)
  mutable closed : int; (* bytes written to chunks before [cur] *)
  mutable count : int;
  prev : prev;
}

(* [pos = chunk_bytes] makes the first push open a chunk. *)
let create () =
  {
    chunks = [||];
    nchunks = 0;
    cur = Bytes.empty;
    pos = chunk_bytes;
    closed = 0;
    count = 0;
    prev = new_prev ();
  }

let length t = t.count
let byte_size t = if t.nchunks = 0 then 0 else t.closed + t.pos

let open_chunk t =
  if t.nchunks > 0 then begin
    t.closed <- t.closed + t.pos;
    if t.pos < chunk_bytes then begin
      Bytes.unsafe_set t.cur t.pos sentinel;
      t.closed <- t.closed + 1
    end
  end;
  if t.nchunks = Array.length t.chunks then begin
    let spine = Array.make (max 8 (2 * t.nchunks)) Bytes.empty in
    Array.blit t.chunks 0 spine 0 t.nchunks;
    t.chunks <- spine
  end;
  (* Zeroed, so that equal logs are equal values, bytes past a
     sentinel included. *)
  let b = Bytes.make chunk_bytes '\000' in
  t.chunks.(t.nchunks) <- b;
  t.nchunks <- t.nchunks + 1;
  t.cur <- b;
  t.pos <- 0

(* Appends [iv]; its tid's previous t1, chunk and waker are
   [p.(o)] to [p.(o + 2)], which the caller has bounds-checked. *)
let write t (iv : Thread_state.interval) p o =
  let gap = iv.Thread_state.t0 - Array.unsafe_get p o in
  let step = iv.Thread_state.chunk - Array.unsafe_get p (o + 1) in
  let waker = iv.Thread_state.waker in
  let header =
    Thread_state.index iv.Thread_state.state
    lor (if gap <> 0 then gap_flag else 0)
    lor (if step <> 0 then step_flag else 0)
    lor (if waker <> Array.unsafe_get p (o + 2) then waker_flag else 0)
  in
  let b = t.cur in
  Bytes.unsafe_set b t.pos (Char.unsafe_chr header);
  let pos = put b (t.pos + 1) iv.Thread_state.stid in
  let pos = put b pos (iv.Thread_state.t1 - iv.Thread_state.t0) in
  let pos = if gap <> 0 then put b pos (zigzag gap) else pos in
  let pos = if step <> 0 then put b pos (zigzag step) else pos in
  let pos = if header land waker_flag <> 0 then put b pos (zigzag waker) else pos in
  t.pos <- pos;
  Array.unsafe_set p o iv.Thread_state.t1;
  Array.unsafe_set p (o + 1) iv.Thread_state.chunk;
  Array.unsafe_set p (o + 2) waker;
  t.count <- t.count + 1

let push t (iv : Thread_state.interval) =
  if t.pos > chunk_bytes - max_record then open_chunk t;
  let tid = iv.Thread_state.stid in
  let dense = t.prev.dense in
  if is_dense tid && 3 * tid < Array.length dense then write t iv dense (3 * tid)
  else write t iv (prev_of t.prev tid) (off tid)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type view = { vchunks : Bytes.t array; vcount : int }

let empty = { vchunks = [||]; vcount = 0 }

(* A closed chunk is never written again; the open one is copied up to
   its last record. *)
let view t =
  if t.nchunks = 0 then empty
  else begin
    let vchunks = Array.sub t.chunks 0 t.nchunks in
    vchunks.(t.nchunks - 1) <- Bytes.sub t.cur 0 t.pos;
    { vchunks; vcount = t.count }
  end

let count v = v.vcount

type cursor = { mutable buf : Bytes.t; mutable at : int; mutable next : int }

let byte c =
  let x = Char.code (Bytes.unsafe_get c.buf c.at) in
  c.at <- c.at + 1;
  x

let rec get c shift acc =
  let x = byte c in
  let acc = acc lor ((x land 0x7f) lsl shift) in
  if x < 0x80 then acc else get c (shift + 7) acc

let iter f v =
  let prev = new_prev () in
  let c = { buf = Bytes.empty; at = chunk_bytes; next = 0 } in
  for _ = 1 to v.vcount do
    if c.at >= chunk_bytes || Bytes.unsafe_get c.buf c.at = sentinel then begin
      c.buf <- v.vchunks.(c.next);
      c.next <- c.next + 1;
      c.at <- 0
    end;
    let header = byte c in
    let stid = get c 0 0 in
    let dur = get c 0 0 in
    let p = prev_of prev stid and o = off stid in
    let t0 = if header land gap_flag <> 0 then p.(o) + unzigzag (get c 0 0) else p.(o) in
    let chunk =
      if header land step_flag <> 0 then p.(o + 1) + unzigzag (get c 0 0) else p.(o + 1)
    in
    let waker = if header land waker_flag <> 0 then unzigzag (get c 0 0) else p.(o + 2) in
    let t1 = t0 + dur in
    p.(o) <- t1;
    p.(o + 1) <- chunk;
    p.(o + 2) <- waker;
    f { Thread_state.stid; state = Thread_state.of_index (header land 0xf); t0; t1; chunk; waker }
  done

let to_list v =
  let acc = ref [] in
  iter (fun iv -> acc := iv :: !acc) v;
  List.rev !acc

(* Min-heap over (key, seq) pairs stored as parallel int arrays: no
   per-entry record is allocated, so a push/pop cycle is allocation-free
   once the backing arrays have grown to capacity.  Values are ints (the
   engine stores fiber ids), so every store is a plain word write: no
   write barrier and no float-array check on the sift paths.  The tree
   is 4-ary: one level shallower than a binary heap for typical queue
   sizes, and the four children of a node share two cache lines of the
   key array. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* The first growth jumps straight to 64 slots: repeated doubling from a
   cold heap re-copies the arrays four times before reaching a typical
   working size. *)
let grow t =
  let cap = Array.length t.keys in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let resize a =
    let b = Array.make new_cap 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.keys <- resize t.keys;
  t.seqs <- resize t.seqs;
  t.vals <- resize t.vals

(* Hole-based sifts: the displaced entry is held in registers and written
   exactly once, instead of swapping at every level. *)

let sift_up t i0 =
  let k = t.keys.(i0) and s = t.seqs.(i0) and v = t.vals.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    if k < t.keys.(p) || (k = t.keys.(p) && s < t.seqs.(p)) then begin
      t.keys.(!i) <- t.keys.(p);
      t.seqs.(!i) <- t.seqs.(p);
      t.vals.(!i) <- t.vals.(p);
      i := p
    end
    else moving := false
  done;
  t.keys.(!i) <- k;
  t.seqs.(!i) <- s;
  t.vals.(!i) <- v

let sift_down t i0 =
  let k = t.keys.(i0) and s = t.seqs.(i0) and v = t.vals.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let first = (4 * !i) + 1 in
    if first >= t.size then moving := false
    else begin
      (* Smallest of the up-to-four children. *)
      let last = min (first + 3) (t.size - 1) in
      let m = ref first in
      for c = first + 1 to last do
        if
          t.keys.(c) < t.keys.(!m)
          || (t.keys.(c) = t.keys.(!m) && t.seqs.(c) < t.seqs.(!m))
        then m := c
      done;
      let m = !m in
      if t.keys.(m) < k || (t.keys.(m) = k && t.seqs.(m) < s) then begin
        t.keys.(!i) <- t.keys.(m);
        t.seqs.(!i) <- t.seqs.(m);
        t.vals.(!i) <- t.vals.(m);
        i := m
      end
      else moving := false
    end
  done;
  t.keys.(!i) <- k;
  t.seqs.(!i) <- s;
  t.vals.(!i) <- v

let push_seq t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  if seq >= t.next_seq then t.next_seq <- seq + 1;
  let i = t.size in
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.vals.(i) <- value;
  t.size <- i + 1;
  sift_up t i

let push t ~key value =
  let seq = t.next_seq in
  push_seq t ~key ~seq value

let top_key_exn t =
  if t.size = 0 then invalid_arg "Heap.top_key_exn: empty heap";
  t.keys.(0)

let top_seq_exn t =
  if t.size = 0 then invalid_arg "Heap.top_seq_exn: empty heap";
  t.seqs.(0)

let pop_min_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_min_exn: empty heap";
  let v = t.vals.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.vals.(0) <- t.vals.(t.size);
    sift_down t 0
  end;
  v

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) in
    Some (key, pop_min_exn t)
  end

let peek_key t = if t.size = 0 then None else Some t.keys.(0)

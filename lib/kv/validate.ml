(* The ordered-OCC arbitration every worker runs on the intents all
   threads published for a round.  Each worker walks the same
   deterministic prefix of the commit order, up to its own priority
   slot, and so reaches the verdicts a fold over the whole round would
   give for its own batch.

   Commit order within a round is (priority, batch index), where a
   thread's priority rotates with the round number — so no thread is
   structurally favoured, and a starving request commits unconditionally
   as soon as its thread reaches priority 0 (its first transaction then
   has an empty committed prefix).  A transaction aborts iff its read or
   write set intersects the write set of an earlier-ordered committed
   transaction of the round: committed transactions therefore read only
   round-start state, which makes the concurrent execution equivalent to
   the serial execution in commit order (strict serializability), and
   makes the verdict a pure function of the published intents — the same
   on every runtime, schedule, and seed. *)

let priority_of ~round ~nthreads tid = (tid + round) mod nthreads

let tid_of_priority ~round ~nthreads p =
  let t = (p - round) mod nthreads in
  if t < 0 then t + nthreads else t

(* Key [k] has been written by a committed transaction of the current
   arbitration iff [written.(k) = stamp]; bumping [stamp] clears every
   mark at once, so a worker reuses one array for the whole run. *)
type t = { written : int array; mutable stamp : int }

let create () = { written = Array.make Layout.n_keys 0; stamp = 0 }

(* The wire format ({!Intent}): word 0 counts the transactions; each
   transaction is a header word (seq*2^16 + nreads*2^8 + nwrites)
   followed by its read entries (ver*2^16 + key*2^8 + len) and then its
   write keys. *)
let word buf i = Int64.to_int (Bytes.get_int64_le buf (i * 8))

(* Top-level loops, not local closures, so the walk allocates nothing. *)
let rec keys_clear t k last = k > last || (t.written.(k) <> t.stamp && keys_clear t (k + 1) last)

let rec reads_clear t buf i stop =
  i = stop
  ||
  let e = word buf i in
  let key = e / 256 mod 256 in
  keys_clear t key (key + (e mod 256) - 1) && reads_clear t buf (i + 1) stop

let rec writes_clear t buf i stop =
  i = stop || (t.written.(word buf i) <> t.stamp && writes_clear t buf (i + 1) stop)

(* One verdict bit per transaction of [self]'s batch. *)
let max_batch = Sys.int_size - 1

let arbitrate t ~round ~nthreads ~self (intents : Bytes.t array) =
  t.stamp <- t.stamp + 1;
  let committed = ref 0 in
  (* A thread's verdicts depend only on the threads ordered before it and
     on its own earlier transactions, so the walk stops at [self]. *)
  for p = 0 to priority_of ~round ~nthreads self do
    let tid = tid_of_priority ~round ~nthreads p in
    let buf = intents.(tid) in
    let ntxns = word buf 0 in
    if tid = self && ntxns > max_batch then
      invalid_arg (Printf.sprintf "Kv.Validate.arbitrate: %d transactions in one batch" ntxns);
    let pos = ref 1 in
    for bi = 0 to ntxns - 1 do
      let h = word buf !pos in
      let reads = !pos + 1 in
      let writes = reads + (h / 256 mod 256) in
      let stop = writes + (h mod 256) in
      pos := stop;
      if reads_clear t buf reads writes && writes_clear t buf writes stop then begin
        for i = writes to stop - 1 do
          t.written.(word buf i) <- t.stamp
        done;
        if tid = self then committed := !committed lor (1 lsl bi)
      end
    done
  done;
  !committed

let commits verdicts bi = verdicts land (1 lsl bi) <> 0

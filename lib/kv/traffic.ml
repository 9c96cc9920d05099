type shape = Uniform | Zipf | Hot | Read_mostly | Write_heavy | Scan

let all = [ Uniform; Zipf; Hot; Read_mostly; Write_heavy; Scan ]

let name = function
  | Uniform -> "kv_uniform"
  | Zipf -> "kv_zipf"
  | Hot -> "kv_hot"
  | Read_mostly -> "kv_read"
  | Write_heavy -> "kv_write"
  | Scan -> "kv_scan"

let index = function
  | Uniform -> 0
  | Zipf -> 1
  | Hot -> 2
  | Read_mostly -> 3
  | Write_heavy -> 4
  | Scan -> 5

let description = function
  | Uniform -> "uniformly random point gets/updates"
  | Zipf -> "Zipfian-skewed key popularity (s=1.2)"
  | Hot -> "hot-key contention: 4 keys take most of the write traffic"
  | Read_mostly -> "90% snapshot reads, 10% updates"
  | Write_heavy -> "85% multi-key updates"
  | Scan -> "range scans interleaved with scan+update transactions"

(* Traffic streams are a function of (shape, thread) only — NOT of the
   runtime seed — so the transaction mix, and therefore the witness, is
   identical across runtimes and seeds.  The seed may legitimately move
   wall_ns and latency histograms, never the requests themselves. *)
let prng shape ~tid = Sim.Prng.create ~seed:(((index shape + 1) * 1_000_003) + (tid * 7_919) + 17)

(* Zipf(s) over the keyspace by inverse-CDF lookup, with the rank order
   scattered by an odd multiplier so popular keys spread over pages
   (except under [Hot], which concentrates on purpose). *)
let zipf_cdf =
  lazy
    (let s = 1.2 in
     let n = Layout.n_keys in
     let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
     let total = Array.fold_left ( +. ) 0.0 w in
     let acc = ref 0.0 in
     Array.map
       (fun x ->
         acc := !acc +. (x /. total);
         !acc)
       w)

let zipf_key prng =
  let cdf = Lazy.force zipf_cdf in
  let u = Sim.Prng.float prng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo * 97 mod Layout.n_keys

let uniform_key prng = Sim.Prng.int prng ~bound:Layout.n_keys
let hot_key prng = Sim.Prng.int prng ~bound:4 * 16 (* keys 0,16,32,48 *)

(* [n] distinct write keys drawn by [pick]; bounded deterministic
   rejection (falls back to a linear probe on collision). *)
let distinct_keys prng pick n =
  let rec add acc left =
    if left = 0 then List.rev acc
    else
      let k0 = pick prng in
      let rec free k = if List.mem k acc then free ((k + 1) mod Layout.n_keys) else k in
      add (free k0 :: acc) (left - 1)
  in
  add [] n

let point_reads prng pick n = List.init n (fun _ -> (pick prng, 1))

let scan_range prng len =
  let k = Sim.Prng.int prng ~bound:(Layout.n_keys - len + 1) in
  (k, len)

let update ~seq reads writes = { Txn.seq; kind = Txn.Update; reads; writes }
let snapshot ~seq reads = { Txn.seq; kind = Txn.Snapshot; reads; writes = [] }

let gen_one shape prng ~seq =
  let roll = Sim.Prng.int prng ~bound:100 in
  match shape with
  | Uniform ->
      if roll < 50 then
        update ~seq (point_reads prng uniform_key 2) (distinct_keys prng uniform_key 2)
      else if roll < 85 then snapshot ~seq (point_reads prng uniform_key 3)
      else snapshot ~seq [ scan_range prng 8 ]
  | Zipf ->
      if roll < 60 then update ~seq (point_reads prng zipf_key 2) (distinct_keys prng zipf_key 2)
      else snapshot ~seq (point_reads prng zipf_key 2)
  | Hot ->
      if roll < 70 then
        let wpick p = if Sim.Prng.int p ~bound:100 < 60 then hot_key p else uniform_key p in
        update ~seq
          [ (hot_key prng, 1); (uniform_key prng, 1) ]
          (distinct_keys prng wpick 1)
      else snapshot ~seq (point_reads prng uniform_key 2)
  | Read_mostly ->
      if roll < 10 then
        update ~seq (point_reads prng uniform_key 1) (distinct_keys prng uniform_key 1)
      else if roll < 70 then snapshot ~seq (point_reads prng uniform_key 3)
      else snapshot ~seq [ scan_range prng 8 ]
  | Write_heavy ->
      if roll < 85 then
        update ~seq (point_reads prng uniform_key 2) (distinct_keys prng uniform_key 3)
      else snapshot ~seq (point_reads prng uniform_key 2)
  | Scan ->
      if roll < 40 then snapshot ~seq [ scan_range prng 16 ]
      else if roll < 80 then
        update ~seq [ scan_range prng 4 ] (distinct_keys prng uniform_key 2)
      else snapshot ~seq (point_reads prng uniform_key 1)

let gen shape ~tid ~requests =
  let prng = prng shape ~tid in
  List.init requests (fun seq ->
      let t = gen_one shape prng ~seq in
      Txn.check t;
      t)

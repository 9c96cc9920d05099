type t = int64

let init = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let byte h b =
  let h = Int64.logxor h (Int64.of_int (b land 0xff)) in
  Int64.mul h prime

(* FNV-1a folds a zero byte as [h * prime] (xor with 0 is the identity),
   so eight zero bytes fold as one multiply by [prime^8] (mod 2^64). *)
let prime8 =
  let p2 = Int64.mul prime prime in
  let p4 = Int64.mul p2 p2 in
  Int64.mul p4 p4

let bytes h buf =
  let n = Bytes.length buf in
  let acc = ref h and i = ref 0 in
  while !i <= n - 8 do
    if Int64.equal (Bytes.get_int64_ne buf !i) 0L then acc := Int64.mul !acc prime8
    else
      for j = !i to !i + 7 do
        acc := byte !acc (Char.code (Bytes.unsafe_get buf j))
      done;
    i := !i + 8
  done;
  for j = !i to n - 1 do
    acc := byte !acc (Char.code (Bytes.unsafe_get buf j))
  done;
  !acc

let string h s = bytes h (Bytes.unsafe_of_string s)

let int h n =
  let acc = ref h in
  for shift = 0 to 7 do
    acc := byte !acc ((n lsr (shift * 8)) land 0xff)
  done;
  !acc

let to_hex h = Printf.sprintf "%016Lx" h

type t = int64

let init = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let[@inline] byte h b =
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

let[@inline] int h n =
  let acc = ref h in
  for shift = 0 to 7 do
    acc := byte !acc ((n lsr (shift * 8)) land 0xff)
  done;
  !acc

let to_hex h = Printf.sprintf "%016Lx" h

(* The state lives in an 8-byte buffer: a mutable [int64] field would
   box a fresh value on every update, whereas each fold below reads the
   state once, keeps it unboxed in a local while it runs ([byte] and
   [int] are inlined), and stores it back in place. *)
type stream = Bytes.t

let stream () =
  let s = Bytes.create 8 in
  Bytes.set_int64_ne s 0 init;
  s

let[@inline] value s = Bytes.get_int64_ne s 0
let add_int s n = Bytes.set_int64_ne s 0 (int (value s) n)

let add_string s str =
  let h = ref (value s) in
  for i = 0 to String.length str - 1 do
    h := byte !h (Char.code (String.unsafe_get str i))
  done;
  Bytes.set_int64_ne s 0 !h

(* The digits of [string_of_int n], most significant first.  Works on
   the non-positive magnitude so that [min_int] needs no special case. *)
let add_decimal s n =
  let h = ref (value s) in
  if n < 0 then h := byte !h (Char.code '-');
  let m = if n < 0 then n else -n in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    h := byte !h (Char.code '0' - ((m / !p) mod 10));
    p := !p / 10
  done;
  Bytes.set_int64_ne s 0 !h

(* The SplitMix64 state lives in an 8-byte buffer rather than a
   [mutable int64] field, which would box a fresh value on every draw.
   The draws below read it, step it and mix it as unboxed locals. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let next_int64 t = next t
let split t = of_state (next t)

let int t ~bound =
  assert (bound > 0);
  (* Mask to 62 bits so the value is a nonnegative OCaml int. *)
  let r = Int64.to_int (next t) land max_int in
  r mod bound

let[@inline] float t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let[@inline] jitter t ~amplitude =
  assert (amplitude >= 0.0 && amplitude < 1.0);
  1.0 -. amplitude +. (2.0 *. amplitude *. float t)

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t ~mean =
  assert (mean > 0.0);
  let u = float t in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

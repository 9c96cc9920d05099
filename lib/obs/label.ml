(* Length of [string_of_int n].  Counts on the non-positive magnitude
   so that [min_int] needs no special case. *)
let width n =
  let m = ref (if n < 0 then n else -n) in
  let w = ref (if n < 0 then 2 else 1) in
  while !m <= -10 do
    m := !m / 10;
    incr w
  done;
  !w

(* Writes [string_of_int n], [w = width n] bytes, at [pos]; returns the
   position after it.  Digits come off the non-positive magnitude,
   whose remainders lie in [-9, 0]. *)
let put_int b pos n w =
  let m = ref (if n < 0 then n else -n) in
  for i = pos + w - 1 downto (if n < 0 then pos + 1 else pos) do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then Bytes.unsafe_set b pos '-';
  pos + w

let put_string b pos s =
  Bytes.unsafe_blit_string s 0 b pos (String.length s);
  pos + String.length s

let int p a =
  let wa = width a in
  let b = Bytes.create (String.length p + wa) in
  ignore (put_int b (put_string b 0 p) a wa);
  Bytes.unsafe_to_string b

let int_s p a s =
  let wa = width a in
  let b = Bytes.create (String.length p + wa + String.length s) in
  ignore (put_string b (put_int b (put_string b 0 p) a wa) s);
  Bytes.unsafe_to_string b

let int2 p a q c =
  let wa = width a and wc = width c in
  let b = Bytes.create (String.length p + wa + String.length q + wc) in
  let pos = put_string b (put_int b (put_string b 0 p) a wa) q in
  ignore (put_int b pos c wc);
  Bytes.unsafe_to_string b

let int3 p a q c r e =
  let wa = width a and wc = width c and we = width e in
  let b =
    Bytes.create (String.length p + wa + String.length q + wc + String.length r + we)
  in
  let pos = put_string b (put_int b (put_string b 0 p) a wa) q in
  let pos = put_string b (put_int b pos c wc) r in
  ignore (put_int b pos e we);
  Bytes.unsafe_to_string b

(* [small.(n)] is [""] until id [n] is first asked for, so a table
   holds only the labels the process uses. *)
type table = { prefix : string; suffix : string; small : string array }

let n_interned = 64
let table prefix suffix = { prefix; suffix; small = Array.make n_interned "" }

let get t n =
  if n >= 0 && n < n_interned then begin
    let s = Array.unsafe_get t.small n in
    if String.length s > 0 then s
    else begin
      let s = int_s t.prefix n t.suffix in
      Array.unsafe_set t.small n s;
      s
    end
  end
  else int_s t.prefix n t.suffix

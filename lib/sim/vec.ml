type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length t = t.size

let push t x =
  if t.size = Array.length t.data then begin
    let cap = Array.length t.data in
    let new_cap = if cap = 0 then 8 else cap * 2 in
    let fresh = Array.make new_cap x in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let check t i =
  if i < 0 || i >= t.size then invalid_arg (Printf.sprintf "Vec: index %d out of bounds (size %d)" i t.size)

let get t i =
  check t i;
  t.data.(i)


type event = { time : int; tid : int; label : string }

type t = {
  capture : bool;
  mutable events_rev : event list;
  mutable count : int;
  h : Fnv.stream;
}

let create ?(capture = false) () =
  { capture; events_rev = []; count = 0; h = Fnv.stream () }

let record t ~time ~tid ~label =
  if t.capture then t.events_rev <- { time; tid; label } :: t.events_rev;
  t.count <- t.count + 1;
  Fnv.add_int t.h tid;
  Fnv.add_string t.h label

let record_int t ~time ~tid ~prefix n =
  if t.capture then
    t.events_rev <- { time; tid; label = prefix ^ string_of_int n } :: t.events_rev;
  t.count <- t.count + 1;
  Fnv.add_int t.h tid;
  Fnv.add_string t.h prefix;
  Fnv.add_decimal t.h n

let length t = t.count
let events t = List.rev t.events_rev
let hash t = Fnv.to_hex (Fnv.value t.h)

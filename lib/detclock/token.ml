type t = {
  ex : Sim.Exec.t;
  clocks : Logical_clock.t;
  mutable holder_tid : int; (* -1 = free *)
  mutable acquisitions : int;
  mutable wakeups : int; (* wakeup events posted by poke *)
}

let create ex clocks = { ex; clocks; holder_tid = -1; acquisitions = 0; wakeups = 0 }

let holder t = if t.holder_tid < 0 then None else Some t.holder_tid
let is_waiting t ~tid = Logical_clock.is_waiting t.clocks ~tid
let waiting_count t = Logical_clock.waiting_count t.clocks
let acquisitions t = t.acquisitions
let wakeups t = t.wakeups

(* The unique thread that could take a free token right now, or -1: the
   GMIC thread, an O(1) read of the clock registry's index. *)
let eligible_tid t = if t.holder_tid >= 0 then -1 else Logical_clock.gmic_tid t.clocks

let eligible_now t =
  let w = eligible_tid t in
  if w < 0 then None else Some w

(* Direct handoff: compute the unique eligible thread from the index and,
   if it is waiting, wake exactly that thread.  One engine event per
   token transfer — never a broadcast over the waiter set. *)
let poke t =
  let w = eligible_tid t in
  if w >= 0 && Logical_clock.is_waiting t.clocks ~tid:w then begin
    t.wakeups <- t.wakeups + 1;
    t.ex.Sim.Exec.wakeup w
  end

let wait t ~tid =
  Logical_clock.set_waiting t.clocks ~tid true;
  while not (t.holder_tid < 0 && eligible_tid t = tid) do
    t.ex.Sim.Exec.block ~reason:"token"
  done;
  Logical_clock.set_waiting t.clocks ~tid false;
  t.holder_tid <- tid;
  t.acquisitions <- t.acquisitions + 1

let release t ~tid =
  if t.holder_tid <> tid then
    invalid_arg (Printf.sprintf "Token.release: tid %d does not hold the token" tid);
  t.holder_tid <- -1;
  poke t

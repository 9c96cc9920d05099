module Vc = Hb.Vector_clock
module Ev = Runtime.Rt_event

type verdict = Racy | Sync_ordered

type finding = {
  event : Ev.t;
  verdict : verdict;
  winner_clock : Vc.t;
  via : string option;
}

type t = {
  thread_vc : (int, Vc.t) Hashtbl.t;
  obj_vc : (string, Vc.t) Hashtbl.t;
  last_acq : (int, string) Hashtbl.t;
  mutable findings_rev : finding list;
  mutable n_events : int;
  mutable n_racy : int;
  mutable n_sync : int;
  mutable bytes_all : int;
  mutable bytes_racy : int;
}

let create () =
  {
    thread_vc = Hashtbl.create 16;
    obj_vc = Hashtbl.create 64;
    last_acq = Hashtbl.create 16;
    findings_rev = [];
    n_events = 0;
    n_racy = 0;
    n_sync = 0;
    bytes_all = 0;
    bytes_racy = 0;
  }

(* A thread's clock starts with its own component at 1: its first
   Release publishes epoch 1 before bumping to 2, matching the
   release-epochs runtimes stamp conflict losers with. *)
let initial_vc tid = Vc.set Vc.empty tid 1

let thread_vc t tid =
  match Hashtbl.find_opt t.thread_vc tid with Some vc -> vc | None -> initial_vc tid

let obj_vc t obj =
  match Hashtbl.find_opt t.obj_vc obj with Some vc -> vc | None -> Vc.empty

let observer t ev =
  match ev with
  | Ev.Boundary _ | Ev.Commit_hash _ | Ev.Txn_abort _ | Ev.Tune_decision _ ->
      (* Scheduling/replay bookkeeping, not happens-before edges: keep
         the detector's event accounting identical to pre-replay runs. *)
      ()
  | Ev.Release _ | Ev.Acquire _ | Ev.Commit _ | Ev.Conflict _ -> (
  t.n_events <- t.n_events + 1;
  match ev with
  | Ev.Boundary _ | Ev.Commit_hash _ | Ev.Txn_abort _ | Ev.Tune_decision _ -> ()
  | Ev.Release { tid; obj } ->
      let c = thread_vc t tid in
      Hashtbl.replace t.obj_vc obj (Vc.join (obj_vc t obj) c);
      Hashtbl.replace t.thread_vc tid (Vc.set c tid (Vc.get c tid + 1))
  | Ev.Acquire { tid; obj } ->
      Hashtbl.replace t.last_acq tid obj;
      Hashtbl.replace t.thread_vc tid (Vc.join (thread_vc t tid) (obj_vc t obj))
  | Ev.Commit _ ->
      (* Chunk boundaries are stamped runtime-side (the loser epoch on
         each Conflict), so commits carry no clock state here. *)
      ()
  | Ev.Conflict { tid = w; version = _; page = _; first_byte; last_byte; loser_tid; loser_version }
    ->
      let cw = thread_vc t w in
      (* [loser_version] is the loser's release epoch at the start of the
         chunk that wrote the bytes: the chunks are ordered iff the
         winner has seen that release or a later one of the same thread,
         which the winner's component for the loser says. *)
      let ordered = Vc.get cw loser_tid >= loser_version in
      let nbytes = last_byte - first_byte + 1 in
      t.bytes_all <- t.bytes_all + nbytes;
      let verdict =
        if ordered then begin
          t.n_sync <- t.n_sync + 1;
          Sync_ordered
        end
        else begin
          t.n_racy <- t.n_racy + 1;
          t.bytes_racy <- t.bytes_racy + nbytes;
          Racy
        end
      in
      t.findings_rev <-
        { event = ev; verdict; winner_clock = cw; via = Hashtbl.find_opt t.last_acq w }
        :: t.findings_rev)

let findings t = List.rev t.findings_rev
let events t = t.n_events
let conflicts t = t.n_racy + t.n_sync
let racy t = t.n_racy
let sync_ordered t = t.n_sync
let conflict_bytes t = t.bytes_all
let racy_bytes t = t.bytes_racy

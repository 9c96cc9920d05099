(* The naive race oracle that {!Race.Detector}'s O(1) epoch verdict is
   checked against.  It keeps every clock each thread has ever
   published, and orders a conflict iff some release of the loser's,
   from the epoch stamped on the conflict on, is pointwise below the
   winner's clock.  Feed it the same event stream as the detector; it
   yields one verdict per [Conflict], in stream order. *)

module Vc = Hb.Vector_clock
module Ev = Runtime.Rt_event

type t = {
  thread_vc : (int, Vc.t) Hashtbl.t;
  obj_vc : (string, Vc.t) Hashtbl.t;
  released : (int, int * Vc.t list) Hashtbl.t;
      (** tid -> (releases so far, their published clocks, newest first) *)
  mutable verdicts_rev : Race.Detector.verdict list;
}

let create () =
  {
    thread_vc = Hashtbl.create 16;
    obj_vc = Hashtbl.create 64;
    released = Hashtbl.create 16;
    verdicts_rev = [];
  }

(* Pointwise order. *)
let leq a b = Vc.equal (Vc.join a b) b

(* A thread's first Release publishes epoch 1, as in the runtimes. *)
let thread_vc t tid =
  match Hashtbl.find_opt t.thread_vc tid with Some vc -> vc | None -> Vc.set Vc.empty tid 1

let obj_vc t obj = Option.value (Hashtbl.find_opt t.obj_vc obj) ~default:Vc.empty
let released t tid = Option.value (Hashtbl.find_opt t.released tid) ~default:(0, [])

let observer t = function
  | Ev.Release { tid; obj } ->
      let c = thread_vc t tid in
      let n, clocks = released t tid in
      Hashtbl.replace t.released tid (n + 1, c :: clocks);
      Hashtbl.replace t.obj_vc obj (Vc.join (obj_vc t obj) c);
      Hashtbl.replace t.thread_vc tid (Vc.set c tid (Vc.get c tid + 1))
  | Ev.Acquire { tid; obj } ->
      Hashtbl.replace t.thread_vc tid (Vc.join (thread_vc t tid) (obj_vc t obj))
  | Ev.Conflict { tid; loser_tid; loser_version; _ } ->
      let cw = thread_vc t tid in
      let n, clocks = released t loser_tid in
      (* The head of [clocks] is release [n]; scan down to [loser_version]. *)
      let rec scan k = function
        | c :: older -> k >= loser_version && (leq c cw || scan (k - 1) older)
        | [] -> false
      in
      let v = if scan n clocks then Race.Detector.Sync_ordered else Race.Detector.Racy in
      t.verdicts_rev <- v :: t.verdicts_rev
  | Ev.Commit _ | Ev.Boundary _ | Ev.Commit_hash _ | Ev.Txn_abort _ | Ev.Tune_decision _ -> ()

let verdicts t = List.rev t.verdicts_rev

type result = {
  program : string;
  tso_pages : int;
  lrc_pages : int;
  acquires : int;
  commits : int;
  page_updates : int;
}

let reduction r =
  if r.tso_pages = 0 then 0.0
  else float_of_int (r.tso_pages - r.lrc_pages) /. float_of_int r.tso_pages

type tracker = {
  thread_vc : (int, Vector_clock.t) Hashtbl.t;
  obj_vc : (string, Vector_clock.t) Hashtbl.t;
  epoch : (int, int) Hashtbl.t; (* per-thread commit counter *)
  (* Epochs at which (page, writer) was committed, ascending. *)
  page_writes : (int * int, int Sim.Vec.t) Hashtbl.t;
  pages_seen : (int, unit) Hashtbl.t;
  mutable lrc_pages : int;
  mutable acquires : int;
  mutable commits : int;
  mutable page_updates : int;
}

let create_tracker () =
  {
    thread_vc = Hashtbl.create 32;
    obj_vc = Hashtbl.create 64;
    epoch = Hashtbl.create 32;
    page_writes = Hashtbl.create 1024;
    pages_seen = Hashtbl.create 1024;
    lrc_pages = 0;
    acquires = 0;
    commits = 0;
    page_updates = 0;
  }

let thread_vc t tid =
  match Hashtbl.find_opt t.thread_vc tid with Some vc -> vc | None -> Vector_clock.empty

let obj_vc t obj =
  match Hashtbl.find_opt t.obj_vc obj with Some vc -> vc | None -> Vector_clock.empty

(* Does a write by [writer] to this page exist with epoch in (lo, hi]? *)
let has_write_in t ~page ~writer ~lo ~hi =
  if hi <= lo then false
  else
    match Hashtbl.find_opt t.page_writes (page, writer) with
    | None -> false
    | Some epochs ->
        (* Epochs are appended in increasing order; scan from the back. *)
        let n = Sim.Vec.length epochs in
        let rec back i =
          if i < 0 then false
          else
            let e = Sim.Vec.get epochs i in
            if e <= lo then false else e <= hi || back (i - 1)
        in
        back (n - 1)

let observer t (ev : Runtime.Rt_event.t) =
  match ev with
  | Runtime.Rt_event.Commit { tid; version = _; pages } ->
      let e = (match Hashtbl.find_opt t.epoch tid with Some e -> e | None -> 0) + 1 in
      Hashtbl.replace t.epoch tid e;
      Hashtbl.replace t.thread_vc tid (Vector_clock.set (thread_vc t tid) tid e);
      List.iter
        (fun p ->
          Hashtbl.replace t.pages_seen p ();
          t.page_updates <- t.page_updates + 1;
          let key = (p, tid) in
          let epochs =
            match Hashtbl.find_opt t.page_writes key with
            | Some v -> v
            | None ->
                let v = Sim.Vec.create () in
                Hashtbl.replace t.page_writes key v;
                v
          in
          Sim.Vec.push epochs e)
        pages;
      t.commits <- t.commits + 1
  | Runtime.Rt_event.Release { tid; obj } ->
      Hashtbl.replace t.obj_vc obj (Vector_clock.join (obj_vc t obj) (thread_vc t tid))
  | Runtime.Rt_event.Acquire { tid; obj } ->
      t.acquires <- t.acquires + 1;
      let old_vc = thread_vc t tid in
      let new_vc = Vector_clock.join old_vc (obj_vc t obj) in
      if not (Vector_clock.equal old_vc new_vc) then begin
        (* Count pages whose visible version advances along this edge:
           some writer's commit in (old, new] touched them. *)
        Hashtbl.iter
          (fun page () ->
            let needed =
              Vector_clock.fold
                (fun writer hi acc ->
                  acc
                  || writer <> tid
                     && has_write_in t ~page ~writer ~lo:(Vector_clock.get old_vc writer) ~hi)
                new_vc false
            in
            if needed then t.lrc_pages <- t.lrc_pages + 1)
          t.pages_seen;
        Hashtbl.replace t.thread_vc tid new_vc
      end
  | Runtime.Rt_event.Conflict _ -> ()
  | Runtime.Rt_event.Boundary _ | Runtime.Rt_event.Commit_hash _
  | Runtime.Rt_event.Txn_abort _ | Runtime.Rt_event.Tune_decision _ ->
      (* Scheduling/replay bookkeeping carries no propagation edges. *)
      ()

let lrc_pages t = t.lrc_pages
let acquires t = t.acquires
let commits t = t.commits
let page_updates t = t.page_updates

let run ?seed ?nthreads (program : Api.t) =
  let tracker = create_tracker () in
  (* Coarsening coalesces many sync ops into one commit+update window,
     which would make the TSO side count batched windows against LRC's
     per-edge counting; disable it so edges and windows correspond 1:1,
     as in the paper's instrumented build. *)
  let cfg = Runtime.Config.without_coarsening Runtime.Config.consequence_ic in
  let res = Runtime.Det_rt.run cfg ?seed ?nthreads ~observer:(observer tracker) program in
  {
    program = program.Api.name;
    tso_pages = res.Stats.Run_result.pages_propagated;
    lrc_pages = tracker.lrc_pages;
    acquires = tracker.acquires;
    commits = tracker.commits;
    page_updates = tracker.page_updates;
  }

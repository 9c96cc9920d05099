module St = Obs.Thread_state

let name = "pthreads"

type thread_state = {
  tid : int;
  acct : Rt_core.thread;
  prng : Sim.Prng.t;
  mutable instr_retired : int;
  mutable exited : bool;
  mutable joiner : int option;
  mutable epoch : int;
      (* release count + 1: the thread's own vector-clock component as a
         race detector replaying our event stream would track it.  Only
         maintained (and only meaningful) when an observer is attached. *)
}

type mutex_rec = { mutable held_by : int option; waitq : int Queue.t }

type t = {
  costs : Cost_model.t;
  eng : Sim.Engine.t;
  mem : Bytes.t;
  page_size : int;
  touched : Bytes.t;  (* one byte per page: '\001' once written *)
  mutable touched_pages : int;
  threads : (int, thread_state) Hashtbl.t;
  mutexes : (int, mutex_rec) Hashtbl.t;
  core : Rt_core.t;
  mutable next_tid : int;
  observer : Rt_event.observer option;
  shadow : (int, int array) Hashtbl.t;
      (* page -> last writer per 8-byte word, packed [(epoch lsl 20) lor
         tid], 0 = never written.  Lazily allocated, and only when an
         observer is attached: bare runs never touch it. *)
}

let thread rt tid = Hashtbl.find rt.threads tid

(* Pthreads uses a strict subset of the profiler states: no token, no
   commits, no chunks. *)
let charge rt th st ns = Rt_core.charge rt.core th.acct st ns
let record_sync rt th op id = Rt_core.sync rt.core ~tid:th.tid op id
let grant rt ~waker tid = Rt_core.grant rt.core (thread rt tid).acct ~waker:waker.tid

(* Happens-before event emission.  Pthreads has no deterministic token
   order, so the stream follows simulated wall-clock order — which is the
   point: racy workloads produce seed-varying streams here, and the race
   detector's job is to tell which conflicts that variation can move.
   Emission charges no cost and never blocks: instrumented runs keep the
   exact timing of bare ones. *)
let emitting rt = rt.observer <> None
let emit rt ev = match rt.observer with Some f -> f ev | None -> ()

(* [obj id] names the object ([Rt_event.obj_mutex] ...), built only when
   somebody is listening. *)
let emit_acquire rt th obj id =
  if emitting rt then emit rt (Rt_event.Acquire { tid = th.tid; obj = obj id })

let emit_release rt th obj id =
  if emitting rt then begin
    emit rt (Rt_event.Release { tid = th.tid; obj = obj id });
    th.epoch <- th.epoch + 1
  end

(* Word-granularity write tracking for the conflict channel.  A write
   that overwrites a word last written by another thread is reported as
   an [Rt_event.Conflict] carrying both writers' release-epochs; the
   detector decides whether synchronization ordered them.  Adjacent
   words with the same previous writer coalesce into one run. *)
let note_write rt th ?(report = true) ~addr ~len () =
  if emitting rt && len > 0 then begin
    let pack = (th.epoch lsl 20) lor th.tid in
    let first = addr lsr 3 and last = (addr + len - 1) lsr 3 in
    let words_per_page = rt.page_size lsr 3 in
    (* Open run: [run_first_w..w-1] all conflicted against [run_prev]. *)
    let run_first_w = ref (-1) and run_prev = ref 0 in
    let close lim_w =
      if !run_first_w >= 0 then begin
        let page = !run_first_w / words_per_page in
        let first_byte = (!run_first_w mod words_per_page) lsl 3 in
        let last_byte = first_byte + (((lim_w - !run_first_w) lsl 3) - 1) in
        emit rt
          (Rt_event.Conflict
             {
               tid = th.tid;
               version = th.epoch;
               page;
               first_byte;
               last_byte;
               loser_tid = !run_prev land 0xFFFFF;
               loser_version = !run_prev lsr 20;
             });
        run_first_w := -1
      end
    in
    for w = first to last do
      let page = w / words_per_page in
      let slots =
        match Hashtbl.find_opt rt.shadow page with
        | Some s -> s
        | None ->
            let s = Array.make words_per_page 0 in
            Hashtbl.replace rt.shadow page s;
            s
      in
      let off = w mod words_per_page in
      let prev = Array.unsafe_get slots off in
      let conflicting = report && prev <> 0 && prev land 0xFFFFF <> th.tid in
      if conflicting && !run_first_w >= 0 && prev <> !run_prev then close w;
      if off = 0 && !run_first_w >= 0 then close w;
      if conflicting && !run_first_w < 0 then begin
        run_first_w := w;
        run_prev := prev
      end
      else if not conflicting then close w;
      Array.unsafe_set slots off pack
    done;
    close (last + 1)
  end

let mutex_of rt id =
  match Hashtbl.find_opt rt.mutexes id with
  | Some m -> m
  | None ->
      let m = { held_by = None; waitq = Queue.create () } in
      Hashtbl.replace rt.mutexes id m;
      m

let work rt th n =
  if n > 0 then begin
    th.instr_retired <- th.instr_retired + n;
    charge rt th St.Run (Cost_model.work_ns rt.costs th.prng n)
  end

let mem_instr rt len = max 1 (len / 8 * rt.costs.Cost_model.mem_op_instr_per_8bytes)

let check_range rt ~addr ~len =
  if addr < 0 || len < 0 || addr + len > Bytes.length rt.mem then
    invalid_arg (Printf.sprintf "pthreads: access [%d, %d) out of bounds" addr (addr + len))

let touch rt ~addr ~len =
  let first = addr / rt.page_size and last = (addr + len - 1) / rt.page_size in
  for p = first to last do
    if Bytes.get rt.touched p = '\000' then begin
      Bytes.set rt.touched p '\001';
      rt.touched_pages <- rt.touched_pages + 1
    end
  done

let read_into rt th ~addr buf =
  let len = Bytes.length buf in
  check_range rt ~addr ~len;
  work rt th (mem_instr rt len);
  Bytes.blit rt.mem addr buf 0 len

let read rt th ~addr ~len =
  check_range rt ~addr ~len;
  let buf = Bytes.create len in
  read_into rt th ~addr buf;
  buf

let write rt th ~addr buf =
  let len = Bytes.length buf in
  check_range rt ~addr ~len;
  work rt th (mem_instr rt len);
  if len > 0 then touch rt ~addr ~len;
  note_write rt th ~addr ~len ();
  Bytes.blit buf 0 rt.mem addr len

let read_int rt th ~addr =
  check_range rt ~addr ~len:8;
  work rt th 1;
  Int64.to_int (Bytes.get_int64_le rt.mem addr)

let write_int rt th ~addr v =
  check_range rt ~addr ~len:8;
  work rt th 1;
  touch rt ~addr ~len:8;
  note_write rt th ~addr ~len:8 ();
  Bytes.set_int64_le rt.mem addr (Int64.of_int v)

(* A hardware atomic: the fiber is not descheduled between the load and
   the store, so the RMW is indivisible.  [report] distinguishes the
   plain RMW (a race participant) from the atomic one (synchronization:
   it updates the shadow so later plain writes racing with it are
   caught, but is never itself reported as a conflict). *)
let fetch_add rt th ~report ~addr delta =
  check_range rt ~addr ~len:8;
  work rt th 10;
  let v = Int64.to_int (Bytes.get_int64_le rt.mem addr) in
  touch rt ~addr ~len:8;
  note_write rt th ~report ~addr ~len:8 ();
  Bytes.set_int64_le rt.mem addr (Int64.of_int (v + delta));
  v

let mutex_lock rt th mid =
  let m = mutex_of rt mid in
  charge rt th St.Runtime rt.costs.Cost_model.pthread_lock_ns;
  if m.held_by = None then m.held_by <- Some th.tid
  else begin
    Queue.push th.tid m.waitq;
    Rt_core.park rt.core th.acct St.Lock_wait ~reason:(Rt_core.label Rt_core.Lock mid);
    m.held_by <- Some th.tid
  end;
  record_sync rt th Rt_core.Lock mid;
  emit_acquire rt th Rt_event.obj_mutex mid

let mutex_unlock rt th mid =
  let m = mutex_of rt mid in
  if m.held_by <> Some th.tid then
    invalid_arg (Printf.sprintf "unlock: thread %d does not hold mutex %d" th.tid mid);
  charge rt th St.Runtime rt.costs.Cost_model.pthread_unlock_ns;
  emit_release rt th Rt_event.obj_mutex mid;
  m.held_by <- None;
  if not (Queue.is_empty m.waitq) then begin
    grant rt ~waker:th (Queue.pop m.waitq);
    charge rt th St.Runtime rt.costs.Cost_model.wake_ns
  end;
  record_sync rt th Rt_core.Unlock mid

let cond_wait rt th cid mid =
  let c = Rt_core.cond_of rt.core cid in
  charge rt th St.Runtime rt.costs.Cost_model.pthread_cond_ns;
  record_sync rt th Rt_core.Cond_wait cid;
  (* Enqueue before releasing the mutex: wait+release must be atomic or a
     signal between them is lost (the unlock yields the simulated CPU). *)
  Queue.push th.tid c.Rt_core.cond_waitq;
  mutex_unlock rt th mid;
  Rt_core.park rt.core th.acct St.Lock_wait ~reason:(Rt_core.cond_reason cid);
  emit_acquire rt th Rt_event.obj_cond cid;
  mutex_lock rt th mid

let cond_signal rt th cid ~broadcast =
  let c = Rt_core.cond_of rt.core cid in
  charge rt th St.Runtime rt.costs.Cost_model.pthread_cond_ns;
  let rec grant_one () =
    if not (Queue.is_empty c.Rt_core.cond_waitq) then begin
      grant rt ~waker:th (Queue.pop c.Rt_core.cond_waitq);
      charge rt th St.Runtime rt.costs.Cost_model.wake_ns;
      if broadcast then grant_one ()
    end
  in
  grant_one ();
  record_sync rt th (if broadcast then Rt_core.Broadcast else Rt_core.Signal) cid;
  emit_release rt th Rt_event.obj_cond cid

let barrier_wait rt th bid =
  let b = Rt_core.barrier rt.core bid in
  charge rt th St.Runtime rt.costs.Cost_model.pthread_barrier_ns;
  record_sync rt th Rt_core.Barrier bid;
  emit_release rt th Rt_event.obj_barrier bid;
  b.Rt_core.arrived_tids <- th.tid :: b.Rt_core.arrived_tids;
  if List.length b.Rt_core.arrived_tids = b.Rt_core.parties then begin
    let others = List.filter (fun tid -> tid <> th.tid) b.Rt_core.arrived_tids in
    b.Rt_core.arrived_tids <- [];
    List.iter (grant rt ~waker:th) others
  end
  else Rt_core.park rt.core th.acct St.Barrier_wait ~reason:(Rt_core.label Rt_core.Barrier bid);
  emit_acquire rt th Rt_event.obj_barrier bid

let rec make_ops rt th : Api.ops =
  {
    Api.tid = th.tid;
    work = (fun n -> work rt th n);
    read = (fun ~addr ~len -> read rt th ~addr ~len);
    read_into = (fun ~addr buf -> read_into rt th ~addr buf);
    write = (fun ~addr buf -> write rt th ~addr buf);
    read_int = (fun ~addr -> read_int rt th ~addr);
    write_int = (fun ~addr v -> write_int rt th ~addr v);
    fetch_add = (fun ~addr delta -> fetch_add rt th ~report:true ~addr delta);
    atomic_fetch_add = (fun ~addr delta -> fetch_add rt th ~report:false ~addr delta);
    lock = (fun m -> mutex_lock rt th m);
    unlock = (fun m -> mutex_unlock rt th m);
    cond_wait = (fun c m -> cond_wait rt th c m);
    cond_signal = (fun c -> cond_signal rt th c ~broadcast:false);
    cond_broadcast = (fun c -> cond_signal rt th c ~broadcast:true);
    barrier_init = (fun bid parties -> Rt_core.barrier_init rt.core bid parties);
    barrier_wait = (fun b -> barrier_wait rt th b);
    spawn = (fun ?name body -> spawn_thread rt th ?name body);
    join = (fun t -> join_thread rt th t);
    log_output = (fun msg -> Rt_core.output rt.core ~tid:th.tid msg);
    yield = (fun () -> Sim.Engine.advance rt.eng 0);
    (* Flat shared heap: there is no version history, so the "pin" is
       always 0 and a snapshot read is a plain read of current memory.
       This coincides with the versioned runtimes whenever the program
       guarantees no concurrent writers to the range, which the kv round
       protocol does by construction. *)
    base_version = (fun () -> 0);
    snapshot_read = (fun ~version:_ ~addr ~len -> read rt th ~addr ~len);
    now_ns = (fun () -> Sim.Engine.now rt.eng);
    metric_incr = (fun key by -> Rt_core.metric_incr rt.core key by);
    metric_observe = (fun key v -> Rt_core.metric_observe rt.core key v);
    txn_validate =
      (fun ~keys ->
        charge rt th St.Txn_validate
          (rt.costs.Cost_model.txn_validate_base_ns
          + (keys * rt.costs.Cost_model.txn_validate_key_ns)));
    txn_abort =
      (fun ~seq ~retries ->
        charge rt th St.Txn_abort
          (rt.costs.Cost_model.txn_abort_ns + (retries * rt.costs.Cost_model.txn_backoff_ns));
        if emitting rt then emit rt (Rt_event.Txn_abort { tid = th.tid; seq; retries }));
  }

and new_thread_state rt ~tid ~tname =
  {
    tid;
    acct = Rt_core.thread ~tid ~name:tname;
    prng = Sim.Prng.split (Sim.Engine.prng rt.eng);
    instr_retired = 0;
    exited = false;
    joiner = None;
    epoch = 1;
  }

and thread_exit rt th =
  record_sync rt th Rt_core.Exit 0;
  emit_release rt th Rt_event.obj_thread_exit th.tid;
  th.exited <- true;
  Option.iter (grant rt ~waker:th) th.joiner

and spawn_thread rt th ?name body =
  charge rt th St.Fork rt.costs.Cost_model.pthread_spawn_ns;
  let child_tid = rt.next_tid in
  rt.next_tid <- child_tid + 1;
  let tname = match name with Some n -> n | None -> Rt_core.thread_name child_tid in
  let child = new_thread_state rt ~tid:child_tid ~tname in
  Hashtbl.replace rt.threads child_tid child;
  emit_release rt th Rt_event.obj_thread child_tid;
  let fiber_id =
    Sim.Engine.spawn rt.eng ~name:tname (fun () ->
        emit_acquire rt child Rt_event.obj_thread child_tid;
        body (make_ops rt child);
        thread_exit rt child)
  in
  assert (fiber_id = child_tid);
  record_sync rt th Rt_core.Spawn child_tid;
  child_tid

and join_thread rt th target_tid =
  charge rt th St.Fork rt.costs.Cost_model.pthread_join_ns;
  let target =
    match Hashtbl.find_opt rt.threads target_tid with
    | Some target -> target
    | None -> invalid_arg (Printf.sprintf "join: unknown thread %d" target_tid)
  in
  if target.joiner <> None then invalid_arg (Printf.sprintf "join: thread %d already joined" target_tid);
  if not target.exited then begin
    target.joiner <- Some th.tid;
    Rt_core.park rt.core th.acct St.Lock_wait ~reason:(Rt_core.label Rt_core.Join target_tid)
  end;
  record_sync rt th Rt_core.Join target_tid;
  emit_acquire rt th Rt_event.obj_thread_exit target_tid

let run ?(costs = Cost_model.default) ?(seed = 1) ?nthreads ?observer ?(obs = Obs.Sink.null)
    ?(schedule = false) (program : Api.t) =
  let nthreads = match nthreads with Some n -> n | None -> program.Api.default_threads in
  let eng = Sim.Engine.create ~seed () in
  let rt =
    {
      costs;
      eng;
      mem = Bytes.make (program.Api.heap_pages * program.Api.page_size) '\000';
      page_size = program.Api.page_size;
      touched = Bytes.make program.Api.heap_pages '\000';
      touched_pages = 0;
      threads = Hashtbl.create 64;
      mutexes = Hashtbl.create 16;
      core = Rt_core.create ~schedule ~ex:(Sim.Exec.of_engine eng) ~obs;
      next_tid = 1;
      observer;
      shadow = Hashtbl.create 64;
    }
  in
  let main_state = new_thread_state rt ~tid:0 ~tname:"main" in
  Hashtbl.replace rt.threads 0 main_state;
  let fiber_id =
    Sim.Engine.spawn eng ~name:"main" (fun () ->
        program.Api.main ~nthreads (make_ops rt main_state);
        thread_exit rt main_state)
  in
  assert (fiber_id = 0);
  Sim.Engine.run eng;
  Rt_core.result rt.core ~program:program.Api.name ~runtime:name ~nthreads ~seed
    ~per_thread:
      (Hashtbl.fold
         (fun _ th acc -> Rt_core.thread_stat th.acct ~instructions:th.instr_retired :: acc)
         rt.threads []
      |> List.sort (fun a b -> compare a.Stats.Run_result.tid b.Stats.Run_result.tid))
    ~mem_hash:(Sim.Fnv.to_hex (Sim.Fnv.bytes Sim.Fnv.init rt.mem))
    ~peak_mem_pages:rt.touched_pages

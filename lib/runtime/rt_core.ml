module St = Obs.Thread_state
module Bd = Stats.Breakdown

type thread = {
  tid : int;
  name : string;
  bd : Bd.t;
  mutable chunk : int;
  mutable waker : int;
  mutable granted : bool;
}

let thread ~tid ~name = { tid; name; bd = Bd.create (); chunk = 0; waker = -1; granted = false }

type op =
  | Lock
  | Unlock
  | Commit
  | Spawn
  | Join
  | Exit
  | Cond_wait
  | Barrier
  | Atomic
  | Signal
  | Broadcast
  | Forced_commit

let ops =
  [| Lock; Unlock; Commit; Spawn; Join; Exit; Cond_wait; Barrier; Atomic; Signal; Broadcast;
     Forced_commit |]

let op_index = function
  | Lock -> 0
  | Unlock -> 1
  | Commit -> 2
  | Spawn -> 3
  | Join -> 4
  | Exit -> 5
  | Cond_wait -> 6
  | Barrier -> 7
  | Atomic -> 8
  | Signal -> 9
  | Broadcast -> 10
  | Forced_commit -> 11

(* The witness label of an op is its family name, followed for ops on
   an object by [":<id>"]; the [op:*] counter adds the "op:" prefix. *)
let on_object = function Exit | Forced_commit -> false | _ -> true

let family = function
  | Lock -> "lock"
  | Unlock -> "unlock"
  | Commit -> "commit"
  | Spawn -> "spawn"
  | Join -> "join"
  | Exit -> "exit"
  | Cond_wait -> "cond_wait"
  | Barrier -> "barrier"
  | Atomic -> "atomic"
  | Signal -> "signal"
  | Broadcast -> "broadcast"
  | Forced_commit -> "forced-commit"

let prefixes = Array.map (fun op -> family op ^ ":") ops

(* Labels, wait reasons and thread names are shared for ids 0-63, so a
   blocking wait, a spawn or a join on a small id allocates no string. *)
let labels = Array.map (fun p -> Obs.Label.table p "") prefixes

let label op n =
  if on_object op then Obs.Label.get (Array.unsafe_get labels (op_index op)) n else family op

let cond_reasons = Obs.Label.table "cond:" ""
let thread_names = Obs.Label.table "t" ""
let cond_reason cid = Obs.Label.get cond_reasons cid
let thread_name tid = Obs.Label.get thread_names tid

let span_cat = function
  | St.Token_wait -> Obs.Span.Determ_wait
  | St.Barrier_wait -> Obs.Span.Barrier_wait
  | _ -> Obs.Span.Lock_wait

(* The program's own metric keys ([Api.ops.metric_incr] and
   [metric_observe]), interned per run.  [keys.(i)] names
   [handles.(i)]; entries are only ever appended. *)
type 'h interned = { mutable keys : string array; mutable handles : 'h array }

let interned () = { keys = [||]; handles = [||] }

(* A top-level loop, not a local closure, so a lookup allocates nothing.
   [String.equal] answers a literal key (one shared string) on the
   pointer compare; a key built at run time finds the same entry, so it
   never adds one. *)
let rec find_key keys key i =
  if i = Array.length keys then -1 else if String.equal (Array.unsafe_get keys i) key then i
  else find_key keys key (i + 1)

let find tbl key = find_key tbl.keys key 0

let add tbl key h =
  tbl.keys <- Array.append tbl.keys [| key |];
  tbl.handles <- Array.append tbl.handles [| h |];
  h

type cond_rec = { cond_waitq : int Queue.t }
type barrier_rec = { mutable parties : int; mutable arrived_tids : int list }

(* Interned handles, so the per-operation paths never hash a key. *)
type t = {
  ex : Sim.Exec.t;
  obs : Obs.Sink.t;
  metrics : Obs.Metrics.t;
  commit_ns : Obs.Metrics.histogram;
  update_ns : Obs.Metrics.histogram;
  commit_pipe_ns : Obs.Metrics.histogram;
  determ_wait_ns : Obs.Metrics.histogram;
  lock_wait_ns : Obs.Metrics.histogram;
  barrier_wait_ns : Obs.Metrics.histogram;
  op_counters : Obs.Metrics.counter array;  (* by [op_index] *)
  program_counters : Obs.Metrics.counter interned;
  program_hists : Obs.Metrics.histogram interned;
  sync_trace : Sim.Trace.t;
  out_trace : Sim.Trace.t;
  mutable sync_ops : int;
  conds : (int, cond_rec) Hashtbl.t;
  barriers : (int, barrier_rec) Hashtbl.t;
}

let create ~schedule ~ex ~obs =
  let metrics = Obs.Metrics.create () in
  let hist = Obs.Metrics.histogram metrics in
  {
    ex;
    obs;
    metrics;
    commit_ns = hist "commit_ns";
    update_ns = hist "update_ns";
    commit_pipe_ns = hist "commit_pipe_ns";
    determ_wait_ns = hist "determ_wait_ns";
    lock_wait_ns = hist "lock_wait_ns";
    barrier_wait_ns = hist "barrier_wait_ns";
    op_counters = Array.map (fun op -> Obs.Metrics.counter metrics ("op:" ^ family op)) ops;
    program_counters = interned ();
    program_hists = interned ();
    sync_trace = Sim.Trace.create ~capture:schedule ();
    out_trace = Sim.Trace.create ();
    sync_ops = 0;
    conds = Hashtbl.create 16;
    barriers = Hashtbl.create 16;
  }

let metrics c = c.metrics
let now c = c.ex.Sim.Exec.now ()
let tracing c = not (Obs.Sink.is_null c.obs)

(* The latency histogram each state's time is sampled into, if any. *)
let sample c st ns =
  match st with
  | St.Commit -> Obs.Metrics.record c.commit_ns ns
  | St.Update -> Obs.Metrics.record c.update_ns ns
  | St.Commit_pipe -> Obs.Metrics.record c.commit_pipe_ns ns
  | St.Token_wait -> Obs.Metrics.record c.determ_wait_ns ns
  | St.Lock_wait -> Obs.Metrics.record c.lock_wait_ns ns
  | St.Barrier_wait -> Obs.Metrics.record c.barrier_wait_ns ns
  | St.Run | St.Fault | St.Overflow | St.Runtime | St.Fork | St.Gc | St.Txn_validate
  | St.Txn_abort ->
      ()

(* The state interval [t0, t1) is emitted after the time was spent, so
   a sink never observes anything the runtime has not already done. *)
let interval c th st ~t0 ~t1 ~waker =
  if t1 > t0 then
    c.obs.Obs.Sink.state { St.stid = th.tid; state = st; t0; t1; chunk = th.chunk; waker }

(* The clock only moves inside a charge or a measured wait, so each
   thread's intervals tile its lifetime exactly (the conservation
   invariant test_prof enforces). *)
let charge c th st ns =
  if ns > 0 then begin
    Bd.add th.bd (Bd.of_state st) ns;
    let t0 = now c in
    c.ex.Sim.Exec.advance ns;
    if tracing c then interval c th st ~t0 ~t1:(now c) ~waker:(-1);
    sample c st ns
  end

let wait c th st ~name ~t0 ~waker =
  let t1 = now c in
  let waited = t1 - t0 in
  Bd.add th.bd (Bd.of_state st) waited;
  sample c st waited;
  if waited > 0 && tracing c then begin
    c.obs.Obs.Sink.span { Obs.Span.name; cat = span_cat st; tid = th.tid; t0; t1; args = [] };
    interval c th st ~t0 ~t1 ~waker
  end;
  th.waker <- -1

let grant c th ~waker =
  th.granted <- true;
  th.waker <- waker;
  c.ex.Sim.Exec.wakeup th.tid

(* The flag, not the wakeup, ends the wait: a stale permit can return
   from [block] before the grant ran.  Consuming the flag here leaves it
   clear for the thread's next wait. *)
let park c th st ~reason =
  let t0 = now c in
  while not th.granted do
    c.ex.Sim.Exec.block ~reason
  done;
  th.granted <- false;
  wait c th st ~name:reason ~t0 ~waker:th.waker

let cond_of c id =
  match Hashtbl.find_opt c.conds id with
  | Some r -> r
  | None ->
      let r = { cond_waitq = Queue.create () } in
      Hashtbl.replace c.conds id r;
      r

let barrier_of c id =
  match Hashtbl.find_opt c.barriers id with
  | Some b -> b
  | None ->
      let b = { parties = 0; arrived_tids = [] } in
      Hashtbl.replace c.barriers id b;
      b

let barrier_init c id parties =
  if parties <= 0 then invalid_arg "barrier_init: parties must be > 0";
  (barrier_of c id).parties <- parties

let barrier c id =
  let b = barrier_of c id in
  if b.parties = 0 then invalid_arg (Printf.sprintf "barrier %d: not initialized" id);
  b

let sync c ~tid op id =
  let i = op_index op in
  c.sync_ops <- c.sync_ops + 1;
  Obs.Metrics.count (Array.unsafe_get c.op_counters i) 1;
  if on_object op then
    Sim.Trace.record_int c.sync_trace ~time:(now c) ~tid ~prefix:(Array.unsafe_get prefixes i) id
  else Sim.Trace.record c.sync_trace ~time:(now c) ~tid ~label:(family op)

let metric_incr c key by =
  let i = find c.program_counters key in
  Obs.Metrics.count
    (if i >= 0 then c.program_counters.handles.(i)
     else add c.program_counters key (Obs.Metrics.counter c.metrics key))
    by

let metric_observe c key v =
  let i = find c.program_hists key in
  Obs.Metrics.record
    (if i >= 0 then c.program_hists.handles.(i)
     else add c.program_hists key (Obs.Metrics.histogram c.metrics key))
    v

let interned_metrics c =
  Array.length c.program_counters.keys + Array.length c.program_hists.keys

let output c ~tid msg = Sim.Trace.record c.out_trace ~time:(now c) ~tid ~label:msg

let thread_stat th ~instructions =
  { Stats.Run_result.tid = th.tid; thread_name = th.name; breakdown = th.bd; instructions }

let result c ~program ~runtime ~nthreads ~seed ~per_thread ~mem_hash ~peak_mem_pages =
  {
    Stats.Run_result.program;
    runtime;
    nthreads;
    seed;
    wall_ns = now c;
    per_thread;
    sync_ops = c.sync_ops;
    token_acquisitions = 0;
    pages_propagated = 0;
    pages_committed = 0;
    pages_merged = 0;
    bytes_merged = 0;
    write_faults = 0;
    commits = 0;
    coarsened_chunks = 0;
    overflow_interrupts = 0;
    peak_mem_pages;
    versions = 0;
    mem_hash;
    sync_order_hash = Sim.Trace.hash c.sync_trace;
    output_hash = Sim.Trace.hash c.out_trace;
    trace_events = Sim.Trace.length c.sync_trace;
    schedule =
      List.map
        (fun (e : Sim.Trace.event) -> (e.Sim.Trace.time, e.Sim.Trace.tid, e.Sim.Trace.label))
        (Sim.Trace.events c.sync_trace);
    metrics = Obs.Metrics.snapshot c.metrics;
  }

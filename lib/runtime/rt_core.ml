module St = Obs.Thread_state
module Bd = Stats.Breakdown

type thread = {
  tid : int;
  name : string;
  bd : Bd.t;
  mutable chunk : int;
  mutable waker : int;
}

let thread ~tid ~name = { tid; name; bd = Bd.create (); chunk = 0; waker = -1 }

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

let op_key = function
  | Lock -> "op:lock"
  | Unlock -> "op:unlock"
  | Commit -> "op:commit"
  | Spawn -> "op:spawn"
  | Join -> "op:join"
  | Exit -> "op:exit"
  | Cond_wait -> "op:cond_wait"
  | Barrier -> "op:barrier"
  | Atomic -> "op:atomic"
  | Signal -> "op:signal"
  | Broadcast -> "op:broadcast"
  | Forced_commit -> "op:forced-commit"

let span_cat = function
  | St.Token_wait -> Obs.Span.Determ_wait
  | St.Barrier_wait -> Obs.Span.Barrier_wait
  | _ -> Obs.Span.Lock_wait

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
  sync_trace : Sim.Trace.t;
  out_trace : Sim.Trace.t;
  mutable sync_ops : int;
}

let create ~ex ~obs =
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
    op_counters = Array.map (fun op -> Obs.Metrics.counter metrics (op_key op)) ops;
    sync_trace = Sim.Trace.create ~capture:true ();
    out_trace = Sim.Trace.create ~capture:true ();
    sync_ops = 0;
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

let sync c ~tid op label =
  c.sync_ops <- c.sync_ops + 1;
  Obs.Metrics.count (Array.unsafe_get c.op_counters (op_index op)) 1;
  Sim.Trace.record c.sync_trace ~time:(now c) ~tid ~label

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

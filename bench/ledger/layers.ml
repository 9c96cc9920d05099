type layer =
  | Sim
  | Run
  | Work
  | Mem
  | Lock
  | Barrier
  | Cond
  | Thread
  | Atomic
  | Txn
  | Workload
  | Obs

let all = [ Sim; Run; Work; Mem; Lock; Barrier; Cond; Thread; Atomic; Txn; Workload; Obs ]
let n_layers = List.length all

let index = function
  | Sim -> 0
  | Run -> 1
  | Work -> 2
  | Mem -> 3
  | Lock -> 4
  | Barrier -> 5
  | Cond -> 6
  | Thread -> 7
  | Atomic -> 8
  | Txn -> 9
  | Workload -> 10
  | Obs -> 11

let name = function
  | Sim -> "sim"
  | Run -> "runtime.run"
  | Work -> "runtime.work"
  | Mem -> "runtime.mem"
  | Lock -> "runtime.lock"
  | Barrier -> "runtime.barrier"
  | Cond -> "runtime.cond"
  | Thread -> "runtime.thread"
  | Atomic -> "runtime.atomic"
  | Txn -> "runtime.txn"
  | Workload -> "workload"
  | Obs -> "obs"

let layer_of_index = Array.of_list all

(* Span categories are a fixed set; [name] carries the layer. *)
let category = function
  | Workload -> Obs.Span.Chunk
  | Sim -> Obs.Span.Determ_wait
  | Obs -> Obs.Span.Race
  | Run | Work | Mem | Lock | Barrier | Cond | Thread | Atomic | Txn -> Obs.Span.Sync

let now () = Int64.to_int (Monotonic_clock.now ())

(* A layer stack; [starts] holds each activation's entry tick for span
   recording.  An empty stack's top is [Sim]: a fiber that has not yet
   entered its body is still inside the engine. *)
type stack = {
  track : int;
  mutable items : int array;
  mutable starts : int array;
  mutable depth : int;
}

let new_stack track = { track; items = Array.make 16 0; starts = Array.make 16 0; depth = 0 }

type t = {
  ns : int array;
  calls : int array;
  mutable last : int;
  mutable traced_ns : int;
  origin : int;
  mutable eng : Sim.Engine.t;
  mutable in_engine : bool;
  outside : stack;
  mutable fibers : stack array;
  mutable spans : Obs.Span.t list option;
}

let create ?(record = false) () =
  {
    ns = Array.make n_layers 0;
    calls = Array.make n_layers 0;
    last = 0;
    traced_ns = 0;
    origin = now ();
    eng = Sim.Engine.create ~seed:0 ();
    in_engine = false;
    outside = new_stack 0;
    fibers = [||];
    spans = (if record then Some [] else None);
  }

let current t =
  if not t.in_engine then t.outside
  else begin
    let id = Sim.Engine.self t.eng in
    let len = Array.length t.fibers in
    if id >= len then
      t.fibers <-
        Array.init (max (id + 1) (2 * len)) (fun i ->
            if i < len then t.fibers.(i) else new_stack (i + 1));
    t.fibers.(id)
  end

(* The one clock: charge the time since the previous tick to the top of
   [st], which is the stack that has been running since then. *)
let tick t st =
  let n = now () in
  let top = if st.depth = 0 then index Sim else st.items.(st.depth - 1) in
  t.ns.(top) <- t.ns.(top) + (n - t.last);
  t.last <- n;
  n

let push st l n =
  if st.depth = Array.length st.items then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    st.items <- grow st.items;
    st.starts <- grow st.starts
  end;
  st.items.(st.depth) <- l;
  st.starts.(st.depth) <- n;
  st.depth <- st.depth + 1

let enter t l =
  let st = current t in
  let l = index l in
  push st l (tick t st);
  t.calls.(l) <- t.calls.(l) + 1

let leave t =
  let st = current t in
  let n = tick t st in
  st.depth <- st.depth - 1;
  match t.spans with
  | None -> ()
  | Some acc ->
      let l = layer_of_index.(st.items.(st.depth)) in
      let span =
        {
          Obs.Span.name = name l;
          cat = category l;
          tid = st.track;
          t0 = st.starts.(st.depth) - t.origin;
          t1 = n - t.origin;
          args = [];
        }
      in
      t.spans <- Some (span :: acc)

let within t l f =
  enter t l;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let exec t (ex : Sim.Exec.t) =
  {
    ex with
    Sim.Exec.advance = (fun ns -> within t Sim (fun () -> ex.Sim.Exec.advance ns));
    block = (fun ~reason -> within t Sim (fun () -> ex.Sim.Exec.block ~reason));
    wakeup = (fun tid -> within t Sim (fun () -> ex.Sim.Exec.wakeup tid));
    spawn =
      (fun ~name f ->
        within t Sim (fun () -> ex.Sim.Exec.spawn ~name (fun () -> within t Thread f)));
  }

let traced_run t eng k =
  t.eng <- eng;
  t.in_engine <- false;
  Array.iter (fun st -> st.depth <- 0) t.fibers;
  t.outside.depth <- 0;
  let t0 = now () in
  t.last <- t0;
  push t.outside (index Run) t0;
  t.calls.(index Run) <- t.calls.(index Run) + 1;
  let start () =
    within t Sim (fun () ->
        t.in_engine <- true;
        Fun.protect ~finally:(fun () -> t.in_engine <- false) (fun () -> Sim.Engine.run eng))
  in
  let finish () =
    leave t;
    t.traced_ns <- t.traced_ns + (t.last - t0)
  in
  match k ~ex:(exec t (Sim.Exec.of_engine eng)) ~start with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let rec ops t (o : Api.ops) =
  let w l f = within t l f in
  {
    o with
    Api.work = (fun n -> w Work (fun () -> o.Api.work n));
    read = (fun ~addr ~len -> w Mem (fun () -> o.Api.read ~addr ~len));
    write = (fun ~addr b -> w Mem (fun () -> o.Api.write ~addr b));
    read_int = (fun ~addr -> w Mem (fun () -> o.Api.read_int ~addr));
    write_int = (fun ~addr v -> w Mem (fun () -> o.Api.write_int ~addr v));
    fetch_add = (fun ~addr v -> w Mem (fun () -> o.Api.fetch_add ~addr v));
    atomic_fetch_add = (fun ~addr v -> w Atomic (fun () -> o.Api.atomic_fetch_add ~addr v));
    lock = (fun m -> w Lock (fun () -> o.Api.lock m));
    unlock = (fun m -> w Lock (fun () -> o.Api.unlock m));
    cond_wait = (fun c m -> w Cond (fun () -> o.Api.cond_wait c m));
    cond_signal = (fun c -> w Cond (fun () -> o.Api.cond_signal c));
    cond_broadcast = (fun c -> w Cond (fun () -> o.Api.cond_broadcast c));
    barrier_init = (fun b n -> w Barrier (fun () -> o.Api.barrier_init b n));
    barrier_wait = (fun b -> w Barrier (fun () -> o.Api.barrier_wait b));
    spawn =
      (fun ?name body ->
        w Thread (fun () ->
            o.Api.spawn ?name (fun child -> w Workload (fun () -> body (ops t child)))));
    join = (fun th -> w Thread (fun () -> o.Api.join th));
    log_output = (fun s -> w Work (fun () -> o.Api.log_output s));
    yield = (fun () -> w Work (fun () -> o.Api.yield ()));
    base_version = (fun () -> w Mem (fun () -> o.Api.base_version ()));
    snapshot_read =
      (fun ~version ~addr ~len -> w Mem (fun () -> o.Api.snapshot_read ~version ~addr ~len));
    now_ns = (fun () -> w Txn (fun () -> o.Api.now_ns ()));
    metric_incr = (fun k v -> w Txn (fun () -> o.Api.metric_incr k v));
    metric_observe = (fun k v -> w Txn (fun () -> o.Api.metric_observe k v));
    txn_validate = (fun ~keys -> w Txn (fun () -> o.Api.txn_validate ~keys));
    txn_abort = (fun ~seq ~retries -> w Txn (fun () -> o.Api.txn_abort ~seq ~retries));
  }

let program t (p : Api.t) =
  let main ~nthreads o = within t Workload (fun () -> p.Api.main ~nthreads (ops t o)) in
  { p with Api.main }

let sink t (s : Obs.Sink.t) =
  {
    Obs.Sink.span = (fun x -> within t Obs (fun () -> s.Obs.Sink.span x));
    instant = (fun x -> within t Obs (fun () -> s.Obs.Sink.instant x));
    state = (fun x -> within t Obs (fun () -> s.Obs.Sink.state x));
  }

let observer t f ev = within t Obs (fun () -> f ev)
let self_ns t l = t.ns.(index l)
let calls t l = t.calls.(index l)
let traced_ns t = t.traced_ns
let attributed_ns t = Array.fold_left ( + ) 0 t.ns

let chrome_trace t ~process_name =
  let spans = List.rev (Option.value t.spans ~default:[]) in
  match Obs.Chrome_trace.of_events ~process_name ~spans ~instants:[] () with
  | Obs.Json.Obj fields ->
      (* of_events labels its clock for simulated time; these spans are host time. *)
      let relabel = function
        | "otherData", Obs.Json.Obj o ->
            let clock = ("clock", Obs.Json.String "host-ns") in
            ("otherData", Obs.Json.Obj (clock :: List.remove_assoc "clock" o))
        | field -> field
      in
      Obs.Json.Obj (List.map relabel fields)
  | doc -> doc

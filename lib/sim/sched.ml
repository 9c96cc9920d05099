(* Work-stealing green-thread scheduler over real OCaml 5 domains: the
   real-parallel counterpart of [Engine].  Green threads are effect
   fibers multiplexed over N worker domains, each with a Chase–Lev
   deque ([Wsq]) plus a shared MPMC injection queue ([Mpmc]) for
   submissions from off-worker contexts.

   Concurrency protocol (mirrors [Engine]'s single-domain semantics):

   - A *global runtime lock* (GRL) serializes all runtime bookkeeping.
     Every green body runs with the GRL held; it is released while the
     green is suspended in [block], and callers may release/reacquire
     it around real work via [lock]/[unlock].  This gives green bodies
     the same mutual-exclusion guarantee they had on the DES, while
     the deterministic token protocol (not the GRL) provides the
     ordering that makes results schedule-independent.
   - [block]/[wakeup] have binary-permit semantics exactly like
     [Engine.block]/[Engine.wakeup]: a wakeup delivered while the green
     is running sets a [pending] permit consumed by its next block.
   - Mutex discipline: the GRL is locked and unlocked on whichever
     worker currently executes the fiber, and every lock/unlock pair
     completes within one execution segment (fibers migrate across
     domains only while suspended), so single-domain Mutex ownership is
     respected.  Lock order is GRL before [park_m]; the park path never
     takes the GRL.
   - Publication of a green to another worker goes through an atomic
     queue push (SC), which orders the preceding [cont]/[body] writes
     before the consuming worker's pop.

   Termination: [outstanding] counts queued-or-running greens.  Wakeups
   only originate from running greens, so when it reaches zero no green
   can ever become runnable again — workers quiesce.  Greens still
   blocked at quiescence are reported as a deadlock, matching
   [Engine.Deadlock]. *)

type green = {
  gid : int;
  gname : string;
  mutable body : (unit -> unit) option;  (* before first run *)
  mutable cont : (unit, unit) Effect.Deep.continuation option;  (* suspended *)
  mutable blocked : bool;   (* waiting for a wakeup *)
  mutable pending : bool;   (* wakeup permit delivered while running *)
  mutable finished : bool;
  mutable reason : string;  (* why blocked, for deadlock reports *)
}

type t = {
  uid : int;  (* distinguishes schedulers in the per-domain worker key *)
  grl : Mutex.t;
  park_m : Mutex.t;
  park_c : Condition.t;
  mutable greens : green option array;  (* gid-indexed; grown on demand *)
  mutable ngreens : int;
  outstanding : int Atomic.t;  (* queued + running greens *)
  finished_flag : bool Atomic.t;
  abort : bool Atomic.t;
  err : exn option Atomic.t;
  deques : green Wsq.t array;
  inject : green Mpmc.t;
  nworkers : int;
  current : green option array;  (* green running on each worker *)
  mutable started : bool;
}

type _ Effect.t += Block : unit Effect.t

let uid_counter = Atomic.make 0

(* (scheduler uid, worker index) of the current domain; (-1, -1) when
   the domain is not a worker. *)
let worker_key : (int * int) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (-1, -1))

let create ?(workers = 1) () =
  let nworkers = max 1 workers in
  {
    uid = Atomic.fetch_and_add uid_counter 1;
    grl = Mutex.create ();
    park_m = Mutex.create ();
    park_c = Condition.create ();
    greens = Array.make 16 None;
    ngreens = 0;
    outstanding = Atomic.make 0;
    finished_flag = Atomic.make false;
    abort = Atomic.make false;
    err = Atomic.make None;
    deques = Array.init nworkers (fun _ -> Wsq.create ());
    inject = Mpmc.create ();
    nworkers;
    current = Array.make nworkers None;
    started = false;
  }

let my_worker t =
  let suid, w = Domain.DLS.get worker_key in
  if suid = t.uid then w else -1

(* Make [g] runnable.  Callers must have accounted for it not being in
   any queue (fresh spawn, or blocked -> runnable transition). *)
let enqueue t g =
  Atomic.incr t.outstanding;
  let w = my_worker t in
  if t.started && w >= 0 then Wsq.push t.deques.(w) g
  else Mpmc.push t.inject g;
  (* Wake one sleeper.  Taking park_m orders this signal after any
     in-progress recheck-then-wait in [park]. *)
  Mutex.lock t.park_m;
  Condition.signal t.park_c;
  Mutex.unlock t.park_m

let find_green t gid =
  if gid >= 0 && gid < t.ngreens then t.greens.(gid) else None

(* ---- operations available to green bodies (GRL held) -------------- *)

let spawn t ~name body =
  let gid = t.ngreens in
  let g =
    { gid; gname = name; body = Some body; cont = None; blocked = false;
      pending = false; finished = false; reason = "" }
  in
  if gid >= Array.length t.greens then begin
    let bigger = Array.make (2 * Array.length t.greens) None in
    Array.blit t.greens 0 bigger 0 t.ngreens;
    t.greens <- bigger
  end;
  t.greens.(gid) <- Some g;
  t.ngreens <- gid + 1;
  enqueue t g;
  gid

let wakeup t gid =
  match find_green t gid with
  | None -> ()
  | Some g ->
      if g.finished then ()
      else if g.blocked then begin
        g.blocked <- false;
        enqueue t g
      end
      else g.pending <- true

let block t ~reason =
  let w = my_worker t in
  if w < 0 then invalid_arg "Sched.block: not on a worker domain";
  let g =
    match t.current.(w) with
    | Some g -> g
    | None -> invalid_arg "Sched.block: no current green"
  in
  if g.pending then g.pending <- false
  else begin
    g.reason <- reason;
    (* Suspends this fiber; the effect handler releases the GRL.  When
       a wakeup reschedules us, the resuming worker reacquires it
       before continuing, so the caller observes an uninterrupted
       critical section. *)
    Effect.perform Block;
    Mutex.lock t.grl
  end

let lock t = Mutex.lock t.grl
let unlock t = Mutex.unlock t.grl

(* ---- worker machinery --------------------------------------------- *)

let broadcast_park t =
  Mutex.lock t.park_m;
  Condition.broadcast t.park_c;
  Mutex.unlock t.park_m

let green_finished t g =
  (* Runs on the worker, GRL already released by the body's protect. *)
  Mutex.lock t.grl;
  g.finished <- true;
  Mutex.unlock t.grl

let green_raised t g e =
  Mutex.lock t.grl;
  g.finished <- true;
  Mutex.unlock t.grl;
  ignore (Atomic.compare_and_set t.err None (Some e));
  Atomic.set t.abort true;
  broadcast_park t

(* Handler for [Block]: runs on the worker's stack with the GRL held
   (the perform site holds it).  Parks or immediately requeues the
   green, then releases the GRL — the worker returns to its loop. *)
let on_block t g (k : (unit, unit) Effect.Deep.continuation) =
  g.cont <- Some k;
  if g.pending then begin
    (* Wakeup raced in between the pending check and the perform:
       consume it and stay runnable. *)
    g.pending <- false;
    enqueue t g
  end
  else g.blocked <- true;
  Mutex.unlock t.grl

let run_green t w g =
  t.current.(w) <- Some g;
  (match g.body with
  | Some body ->
      g.body <- None;
      Effect.Deep.match_with
        (fun () ->
          Mutex.lock t.grl;
          Fun.protect ~finally:(fun () -> Mutex.unlock t.grl) body)
        ()
        {
          Effect.Deep.retc = (fun () -> green_finished t g);
          exnc = (fun e -> green_raised t g e);
          effc =
            (fun (type b) (eff : b Effect.t) ->
              match eff with
              | Block ->
                  Some
                    (fun (k : (b, unit) Effect.Deep.continuation) ->
                      on_block t g k)
              | _ -> None);
        }
  | None -> (
      match g.cont with
      | Some k ->
          g.cont <- None;
          (* The original handler travels with the continuation:
             exceptions and further Blocks are still routed to it. *)
          Effect.Deep.continue k ()
      | None -> assert false));
  t.current.(w) <- None

let steal t w =
  let n = t.nworkers in
  let rec go i =
    if i >= n - 1 then None
    else
      let v = (w + 1 + i) mod n in
      match Wsq.steal t.deques.(v) with
      | Some _ as r -> r
      | None -> go (i + 1)
  in
  if n <= 1 then None else go 0

let find_work t w =
  match Wsq.pop t.deques.(w) with
  | Some _ as r -> r
  | None -> (
      match Mpmc.pop t.inject with Some _ as r -> r | None -> steal t w)

(* Sleep until work appears or the scheduler quiesces.  Rechecks the
   queues under [park_m] before each wait so a producer's push-then-
   signal can't be lost. *)
let park t w =
  Mutex.lock t.park_m;
  let rec wait_loop () =
    if
      Atomic.get t.abort
      || Atomic.get t.finished_flag
      || Atomic.get t.outstanding = 0
    then None
    else
      match find_work t w with
      | Some _ as r -> r
      | None ->
          Condition.wait t.park_c t.park_m;
          wait_loop ()
  in
  let r = wait_loop () in
  Mutex.unlock t.park_m;
  r

let worker_loop t w =
  let continue_ = ref true in
  while !continue_ do
    if Atomic.get t.abort || Atomic.get t.finished_flag then continue_ := false
    else begin
      let task = match find_work t w with Some _ as r -> r | None -> park t w in
      match task with
      | None -> continue_ := false
      | Some g ->
          run_green t w g;
          if Atomic.fetch_and_add t.outstanding (-1) = 1 then begin
            (* Last queued-or-running green just left the system: no
               wakeup source remains, so this is quiescence. *)
            Atomic.set t.finished_flag true;
            broadcast_park t
          end
    end
  done

let run t =
  if t.started then invalid_arg "Sched.run: already run";
  t.started <- true;
  let worker w () =
    let saved = Domain.DLS.get worker_key in
    Domain.DLS.set worker_key (t.uid, w);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set worker_key saved)
      (fun () -> worker_loop t w)
  in
  let domains =
    Array.init (t.nworkers - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  (* The calling domain is worker 0. *)
  Fun.protect
    ~finally:(fun () -> Array.iter Domain.join domains)
    (worker 0);
  (match Atomic.get t.err with Some e -> raise e | None -> ());
  (* Quiescence with blocked greens = deadlock, as on the DES. *)
  let stuck = ref [] in
  for gid = t.ngreens - 1 downto 0 do
    match t.greens.(gid) with
    | Some g when g.blocked && not g.finished ->
        stuck := Printf.sprintf "%d:%s(%s)" g.gid g.gname g.reason :: !stuck
    | _ -> ()
  done;
  if !stuck <> [] then
    raise
      (Engine.Deadlock
         (Printf.sprintf "all domains idle; blocked: %s"
            (String.concat ", " !stuck)))

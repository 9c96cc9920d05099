(* Execution substrate: the capability record through which the
   deterministic runtime touches its scheduler.  Two implementations
   exist — the discrete-event [Engine] (simulated time, effect-handler
   fibers on one domain) and [Sched] (real OCaml 5 domains with
   work-stealing, wall-clock time).  The runtime algorithms are written
   against this record only, which is what makes the cross-backend
   witness identity a mechanical fact rather than a re-implementation
   claim.  Everything a real backend does differently (real work, the
   runtime lock, wall-clock calibration) sits behind the last four
   fields; the DES fills them with no-ops. *)

type timed = Commit | Update

type t = {
  now : unit -> int;
      (* Simulated nanoseconds (DES) or wall nanoseconds since run
         start (real).  Monotone; never read by the algorithms for
         anything but accounting. *)
  advance : int -> unit;
      (* Consume modelled time.  A no-op on a real backend, where time
         passes by itself. *)
  block : reason:string -> unit;
      (* Deschedule the calling thread until [wakeup].  Binary-permit
         semantics: a wakeup posted while the thread is running is
         consumed by the next block instead of being lost. *)
  wakeup : int -> unit;
  spawn : name:string -> (unit -> unit) -> int;
      (* Register a green thread; returns its id.  Ids are handed out
         sequentially from 0 in call order. *)
  prng : Prng.t;
      (* Master PRNG; subsystems split it. *)
  real : bool;
      (* True when other domains read committed snapshots without the
         runtime lock, so segment history must never be collected. *)
  spin : int -> unit;
      (* Execute [n] instructions of real work, with the runtime lock
         released.  No-op on the DES (which charges modelled time
         instead). *)
  unlocked : 'a. (unit -> 'a) -> 'a;
      (* Run a memory operation with the runtime lock released, and
         retake it before the result or an exception escapes.  Plain
         application on the DES. *)
  timed : timed -> int -> unit;
      (* Host ns one workspace commit or update took; the runtime reads
         [now] around the call.  Dropped on the DES. *)
  counters : unit -> (string * int) list;
      (* Counters the substrate itself kept, added to the run's metrics
         once when the run ends.  None on the DES. *)
}

let of_engine eng =
  {
    now = (fun () -> Engine.now eng);
    advance = (fun ns -> Engine.advance eng ns);
    block = (fun ~reason -> Engine.block eng ~reason);
    wakeup = (fun tid -> Engine.wakeup eng tid);
    spawn = (fun ~name f -> Engine.spawn eng ~name f);
    prng = Engine.prng eng;
    real = false;
    spin = ignore;
    unlocked = (fun f -> f ());
    timed = (fun _ _ -> ());
    counters = (fun () -> []);
  }

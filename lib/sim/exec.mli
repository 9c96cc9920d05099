(** Execution substrate: the capability record through which the
    deterministic runtime drives its scheduler.  [of_engine] wraps the
    discrete-event simulator; the real-multicore backend builds one
    over {!Sched} (see [Runtime.Domains_rt]).  Writing the runtime
    algorithms against this record is what makes cross-backend witness
    identity a structural property: the runtime runs one path on both,
    and what a real backend does differently lives in [spin],
    [unlocked], [timed] and [counters]. *)

(** The workspace operations a runtime times for the substrate. *)
type timed = Commit | Update

type t = {
  now : unit -> int;
      (** Simulated ns (DES) or wall ns since run start (real). *)
  advance : int -> unit;  (** Consume modelled time; no-op when real. *)
  block : reason:string -> unit;
      (** Deschedule until [wakeup]; binary-permit semantics as in
          {!Engine.block}. *)
  wakeup : int -> unit;
  spawn : name:string -> (unit -> unit) -> int;
      (** Register a green thread; ids are sequential from 0. *)
  prng : Prng.t;
  real : bool;
      (** Other domains read committed snapshots without the runtime
          lock: the runtime must not collect segment history. *)
  spin : int -> unit;
      (** Execute [n] instructions of real work with the runtime lock
          released; no-op on the DES. *)
  unlocked : 'a. (unit -> 'a) -> 'a;
      (** Run a memory operation with the runtime lock released,
          retaking it before the result or an exception escapes; plain
          application on the DES. *)
  timed : timed -> int -> unit;
      (** Host ns one workspace commit or update took; dropped on the
          DES. *)
  counters : unit -> (string * int) list;
      (** Counters the substrate kept, added to the run's metrics when
          the run ends; none on the DES. *)
}

val of_engine : Engine.t -> t

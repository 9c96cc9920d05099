(** The four ledger workloads, their set-up and their correctness gate.

    Every run goes through [Runtime.Det_rt.run_exec] on the DES engine
    at the bench seed.  A {e pass} runs every program of a workload
    once, one program at a time, on one domain. *)

type program = { prog : Api.t; threads : int }

type kind =
  | Plain
  | Against_ic  (** the witness must equal the same program's under [consequence_ic] *)
  | Kv
      (** KV service: set-up also checks every shape against [Kv.Oracle], and
          the request-latency metrics are reported *)
  | Profiled
      (** record path: [Obs.Tracer] ⊕ [Prof.Profile] sink, an
          event-collecting observer, then [Profile.finish] *)

type t = {
  name : string;
  passes : int;  (** default pass count, sized for about 15 s per workload *)
  config : Runtime.Config.t;
  programs : unit -> program list;  (** builds the programs *)
  kind : kind;
}

val all : t list
val find : string -> t option

type run = {
  result : Stats.Run_result.t;
  events : int;  (** engine events *)
  dispatches : int;  (** engine dispatches *)
  conserved : bool;  (** [Profile.conservation_ok]; true when not profiled *)
  finish_ns : int;  (** host ns in [Profile.finish]; 0 when not profiled *)
}

val run_program : t -> seed:int -> ?tracer:Layers.t -> program -> run

type golden = {
  witness : string;  (** under [consequence_ic] for [Against_ic] *)
  wall_ns : int;
  baseline_ns : int;
      (** pthreads wall at the same thread count: the median over the
          nine seeds from the bench seed on *)
}

type setup = { programs : program list; goldens : golden list }

val setup : t -> seed:int -> setup
(** Build the programs, run the warm-up pass that fixes the golden
    witnesses, run the pthreads baselines, and run the workload's
    oracle checks.
    @raise Failure when a set-up check fails. *)

val passes_gate : golden -> run -> bool
(** Witness and [wall_ns] equal the golden, and the profile conserves. *)

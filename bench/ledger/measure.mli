(** Measure one workload and derive its ledger metrics.

    End-to-end metrics come from untraced passes.  A traced measurement
    alternates untraced and traced passes and also yields the per-layer
    metrics; the ratio of the two pass times is the tracing overhead. *)

type budget =
  | Passes of int  (** untraced passes; a traced measurement runs [max 1 (n / 4)] pairs *)
  | Seconds of float  (** keep starting passes (or pairs) until this much host time has passed *)

type pass = {
  host_ns : int;
  alloc_words : float;  (** minor-heap words allocated by the pass *)
  failures : string list;  (** one line per failed run *)
  ref_ns : int;  (** the reference kernel timed right after the pass; 0 when traced *)
}

type traced = { tpass : pass; tracer : Layers.t; finish_ns : int }

type t = {
  workload : Workloads.t;
  seed : int;
  setups : (int * int) list;  (** per set-up: host ns, then the reference kernel's ns *)
  setup : Workloads.setup;
  sample : Workloads.run list;  (** the runs of the first untraced pass *)
  passes : pass list;  (** untraced *)
  traced : traced list;
}

val measure : ?setups:int -> Workloads.t -> seed:int -> budget:budget -> trace:bool -> t
(** [setups] (default 9) repeats the set-up and times each repetition;
    every repetition must fix the same goldens.  The first traced pass
    keeps its host spans (see {!Layers.chrome_trace}).
    @raise Failure when a set-up check fails. *)

val attempted : t -> int
val failed : t -> int
val failures : t -> string list

type clock = Host | Sim

type metric = {
  name : string;
  value : float;
  unit : string;
  clock : clock;
  n : int;  (** samples behind the value *)
}

val clock_name : clock -> string

val e2e : t -> metric list
(** The end-to-end metrics named in [BENCHMARK.json], in its order. *)

val diagnostics : t -> metric list
(** [setup_s.raw], [pass_ms.{min,p50,p90}], [ref_ms.p50],
    [failed_ratio] and, on [kv-ic], the request-latency metrics. *)

val layers : t -> metric list
(** The per-layer metrics named in [BENCHMARK.json], in its order;
    empty for an untraced measurement. *)

(** Shared building blocks for the benchmark models.

    Every model is a deterministic function of its parameters: "random"
    access patterns are drawn from explicitly seeded streams, so the same
    program text drives every runtime identically (only the runtime's
    scheduling differs). *)

val scaled : float -> int -> int
(** [scaled s n] is [max 1 (round (s * n))]: scales instruction counts and
    iteration counts by the benchmark scale factor. *)

val work_amount : float -> int -> int
(** [work_amount s n] scales a local-work instruction count: [scaled]
    times a global calibration multiplier that sets the suite's
    work-to-synchronization ratio (real benchmark inputs retire far more
    instructions per sync op than a millisecond-scale model can). *)

val chunked_work : Api.ops -> total:int -> chunk:int -> unit
(** Retire [total] instructions in pieces of [chunk] (models loop nests;
    gives the runtime natural overflow-publication points). *)

val fill_region : Api.ops -> addr:int -> bytes:int -> tag:int -> unit
(** Write a recognizable pattern over [bytes] bytes at [addr]. *)

val locked_add : Api.ops -> lock:Api.mutex -> addr:int -> int -> unit
(** Lock-protected fetch-and-add on an 8-byte cell. *)

val spawn_workers :
  Api.ops -> n:int -> ?name:(int -> string) -> (int -> Api.ops -> unit) -> unit
(** Spawn [n] workers running [body i], then join them all in order. *)

val checksum : Api.ops -> addr:int -> words:int -> int
(** Sum of [words] consecutive 8-byte integers at [addr]; logged by the
    models as their output witness. *)

(** {1 Bounded queue in shared memory}

    A ring buffer protected by one mutex and two condition variables —
    the structure the pipeline benchmarks (ferret, dedup) are built on.
    Layout at [base]: head word, tail word, then [capacity] value slots.
    Values must be >= 0; {!queue_pop} returns a pushed value. *)

type queue = {
  q_base : int;
  q_capacity : int;
  q_lock : Api.mutex;
  q_nonfull : Api.cond;
  q_nonempty : Api.cond;
}

val queue_make :
  base:int -> capacity:int -> lock:Api.mutex -> nonfull:Api.cond -> nonempty:Api.cond -> queue

val queue_push : Api.ops -> queue -> int -> unit
val queue_pop : Api.ops -> queue -> int

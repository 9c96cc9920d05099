(** The deterministic transactional KV service.

    A round-structured ordered-OCC server: each server thread executes a
    batch of requests against the round-start snapshot (buffering update
    writes locally, serving snapshot reads copy-free from version
    histories at a pinned version), publishes its read/write intents,
    and — after the round barrier — reads every peer's intents into
    buffers it keeps for the whole run and runs the same pure
    arbitration ({!Validate.arbitrate}) on the wire format, in the
    commit order fixed by the round structure, up to its own priority
    slot.  Verdicts are a pure function of published intents,
    so transaction outcomes and abort/retry counts are byte-identical
    across all runtimes and seeds; snapshot transactions never abort by
    construction. *)

val batch : int
(** Requests a thread attempts per round (retries first). *)

val default_requests : int
(** Per-thread request count of the registry workloads at scale 1. *)

(** {1 Oracle capture} *)

type record_ = {
  rc_tid : int;
  rc_txn : Txn.t;
  rc_round : int;  (** round the request completed in *)
  rc_batch : int;  (** its index within that round's intent list *)
  rc_retries : int;
  rc_read_sum : int;  (** the sum over its read set it observed *)
}

type recorder = record_ -> unit

type outcome = {
  oc_nthreads : int;
  oc_requests : int;
  oc_final : int array;  (** final value per key *)
  oc_vers : int array;  (** final version word per key *)
  oc_checksums : int array;  (** per-thread completion checksum *)
  oc_commits : int array;
  oc_aborts : int array;
  oc_records : record_ list;  (** every completed request, all threads *)
}

val mix : int -> int -> int -> int
(** [mix chk v seq] — the completion-checksum step, shared with the
    oracle. *)

val workload : ?requests:int -> Traffic.shape -> Api.t
(** The registry-facing program for a traffic shape: no capture, no
    shared mutable state, safe to run concurrently. *)

val probe : ?requests:int -> Traffic.shape -> Api.t * (unit -> outcome)
(** A capturing variant for tests: returns the program and an accessor
    for the last completed run's outcome (raises if the program has not
    run).  The capture state is reset at the start of each run; run it
    sequentially. *)

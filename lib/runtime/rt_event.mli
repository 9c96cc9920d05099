(** Happens-before instrumentation events.

    The runtimes can report each commit, release, acquire and merge
    conflict to an observer as they execute; the [hb] library replays
    these with vector clocks to estimate what an LRC-based consistency
    model would have propagated (paper section 5.3 / Fig 16), and the
    [race] library classifies the conflicts as racy or sync-ordered.

    Objects are identified by strings: ["m:3"] (mutex), ["c:1"]
    (condition variable), ["b:0"] (barrier), ["t:5"] (thread start/exit
    edge).  Events are emitted in the global total (token) order under
    the deterministic runtimes, and in wall-clock simulation order under
    pthreads. *)

type t =
  | Commit of { tid : int; version : int; pages : int list }
      (** the thread published these pages as the given version *)
  | Release of { tid : int; obj : string }
      (** release edge source: unlock, barrier arrival, cond signal,
          thread spawn (parent side), thread exit *)
  | Acquire of { tid : int; obj : string }
      (** acquire edge sink: lock, barrier departure, cond wake,
          thread start (child side), join *)
  | Conflict of {
      tid : int;  (** the winner: the thread whose commit merged *)
      version : int;
          (** deterministic runtimes: the version the winner committed;
              pthreads: the winner's release-epoch at the racing write *)
      page : int;
      first_byte : int;  (** page-relative, inclusive *)
      last_byte : int;  (** page-relative, inclusive *)
      loser_tid : int;  (** committer whose bytes were overwritten *)
      loser_version : int;
          (** the loser's release epoch at the start of the chunk (or,
              under pthreads, the instruction window) that wrote the
              bytes: its k-th emitted [Release] publishes epoch k *)
    }
      (** one byte run the last-writer-wins merge silently resolved
          (paper section 2.5); emitted just before the winner's
          [Commit] under the deterministic runtimes *)
  | Boundary of { tid : int; ic : int; overflow : bool }
      (** the thread published its retired-instruction counter: [ic] is
          the thread's retired count at the publication point, and
          [overflow] distinguishes a simulated counter-overflow interrupt
          (an [lib/replay] schedule can force these boundaries) from an
          end-of-chunk counter read at a sync op (program-determined).
          Unlike the four synchronization events above, boundaries are
          emitted mid-chunk, outside the token, so their interleaving
          across threads follows deterministic simulation order rather
          than the global token order.  Only the deterministic runtimes
          emit them, and only to an [observer] (never as trace
          instants). *)
  | Commit_hash of { tid : int; version : int; hash : string }
      (** content digest (FNV-1a over the committed page snapshots) of
          the workspace state a [Commit] just published; emitted
          immediately after its [Commit] so a replay can cross-check
          {e values}, not just schedule shape.  Observer-only, like
          [Boundary]. *)
  | Txn_abort of { tid : int; seq : int; retries : int }
      (** the thread's software transaction [seq] (its per-thread
          request ordinal) failed validation against the deterministic
          commit order and will retry; [retries] counts prior aborts of
          the same request.  Under the deterministic runtimes the
          abort/retry decision is a pure function of committed state, so
          these events are part of the replay-checked stream — a replay
          that aborts differently diverges.  Emitted outside the token,
          like [Boundary], but unlike it also recorded as a trace
          instant: nothing else on the timeline marks an abort. *)
  | Tune_decision of {
      tid : int;
      epoch : int;  (** decision ordinal: 0 at thread start, then one
                        per milestone *)
      ic : int;  (** the retired-instruction milestone the decision
                     applies at ([epoch * period], exact on every
                     backend) *)
      chunk_base : int;
      chunk_cap : int;
      coarsen : int;
      coarsen_floor : int;
      coarsen_cap : int;
    }
      (** the self-tuning controller ({!Tune_ctl}) applied a knob
          decision.  Decisions are a pure function of (params, epoch),
          so the stream is identical across runtimes and seeds; like
          [Txn_abort] they are replay-checked — a replay whose
          controller decides differently diverges.  Emitted outside the
          token, to the observer and as a trace instant marking where
          the knobs changed. *)

type observer = t -> unit

(** {1 Object names}

    For ids 0–63, each [obj_*] function returns one shared string,
    built once per process on first use, so naming a small object
    allocates nothing after that; any other id gets a fresh string
    with the same text. *)

val obj_mutex : int -> string
val obj_cond : int -> string
val obj_barrier : int -> string
val obj_thread : int -> string

val obj_thread_exit : int -> string
(** ["t:<k>:exit"]: released by thread [k]'s exit, acquired by its
    joiner. *)

val thread_of_obj : string -> int
(** [thread_of_obj (obj_thread k)] is [k] for [0 <= k < 10^18] (a
    spawn edge's child); any other string, an [obj_thread_exit] name
    included, gives -1.  Allocates nothing. *)

val label : t -> string
(** Short instant name used for trace spans: ["commit:v12"],
    ["rel:m:3"], ["acq:b:0"], ["conflict:p4+16..23"].  Built without
    [Printf], at its exact size; the [rel:]/[acq:] label of an event on
    an object with an interned name (ids 0–63) is itself one shared
    string, so it allocates nothing. *)

val tid : t -> int

val pp : Format.formatter -> t -> unit
(** Human-readable one-liner, used by the race detector's report. *)

val to_json : t -> Obs.Json.t
(** Structured form for trace/bench emission. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}: schedule logs serialize through the same
    schema as traces.  [Error] names the missing or ill-typed field. *)

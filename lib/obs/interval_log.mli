(** Append-only log of {!Thread_state} intervals, stored as bytes.

    The observed-run path emits tens of thousands of intervals per run,
    and both the tracer and the profiler keep every one.  A log keeps
    each interval as a few bytes instead of a record and a list cell:

    - a header byte: the state index in the low four bits, then three
      flags saying which of the optional fields below follow;
    - the tid and the duration [t1 - t0], as unsigned LEB128 varints;
    - only where it differs from that tid's previous interval, as
      zigzag LEB128 varints: the gap [t0 - previous t1], the chunk step
      [chunk - previous chunk], and the waker itself.

    A thread with no earlier interval compares against t1 = 0,
    chunk = 0 and waker = -1.  Differences wrap, so every field of
    every interval round-trips exactly for any int value: [min_int],
    [max_int], negative gaps, backward chunk steps and sparse or
    negative tids included.  A runtime stream costs about 4 bytes per
    interval.

    The bytes live in chunks of {!chunk_bytes}, each small enough for
    the minor heap.  A record never spans two chunks; a chunk left with
    too little room for the largest record ends in a sentinel byte.

    A log is not thread-safe.  On the domains backend the runtimes emit
    intervals under their scheduler lock, so pushes never race. *)

type t

val create : unit -> t

val push : t -> Thread_state.interval -> unit
(** Append one interval.  Allocates only when it opens a chunk, or the
    first time it sees a tid. *)

val length : t -> int
(** Intervals pushed since {!create}. *)

val byte_size : t -> int
(** Bytes written, sentinels included. *)

val chunk_bytes : int
(** Data bytes per chunk: 2,040, so that a chunk is a 256-word block,
    the largest OCaml allocates on the minor heap. *)

(** {1 Reading} *)

type view
(** The intervals a log held when the view was taken: an immutable
    value, which later pushes on the log do not change.
    Views of equal streams are equal under [=]. *)

val view : t -> view
(** Shares the log's full chunks and copies the one being written, at
    most {!chunk_bytes} bytes. *)

val empty : view

val count : view -> int

val iter : (Thread_state.interval -> unit) -> view -> unit
(** Decode the intervals in the order they were pushed. *)

val to_list : view -> Thread_state.interval list
(** In push order. *)

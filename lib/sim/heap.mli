(** 4-ary min-heap used as the simulator's event queue.

    Entries are ordered by a primary integer key (simulated time) with a
    strictly increasing sequence number as tie-breaker, so two events
    scheduled for the same instant pop in insertion order.  This total
    order is what makes the simulator deterministic.

    Values are ints: the engine, the heap's only user, stores fiber
    ids.  The heap is stored as parallel key/seq/value int arrays:
    pushing allocates nothing once the backing arrays have reached
    capacity, no store needs a write barrier, and the [_exn] accessors
    below let a drain loop run allocation-free (no option or tuple
    boxing). *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> key:int -> int -> unit
(** [push t ~key v] inserts [v] with priority [key].  Insertion order among
    equal keys is preserved on [pop]. *)

val push_seq : t -> key:int -> seq:int -> int -> unit
(** [push_seq t ~key ~seq v] inserts with an explicitly chosen tie-break
    sequence number, for callers that interleave the heap with a second
    queue sharing one global sequence counter (the engine's due-now
    FIFO).  [seq] values must be distinct; the internal counter used by
    {!push} is bumped past [seq]. *)

val pop : t -> (int * int) option
(** Remove and return the minimum entry as [(key, value)], or [None] when
    empty. *)

val pop_min_exn : t -> int
(** Remove the minimum entry and return its value only — no tuple or
    option allocation.  Raises [Invalid_argument] when empty. *)

val top_key_exn : t -> int
(** Key of the minimum entry.  Raises [Invalid_argument] when empty. *)

val top_seq_exn : t -> int
(** Sequence number of the minimum entry.  Raises [Invalid_argument] when
    empty. *)

val peek_key : t -> int option
(** Key of the minimum entry without removing it. *)

(** Deterministic ordered-OCC arbitration.

    The verdict for a round is a pure function of the intents every
    thread published at the round barrier — no schedule state, no
    clocks.  Every thread walks the same deterministic prefix of the
    commit order, up to its own slot, so it reaches the verdicts the
    fold over the whole round would give for its own batch, and the
    outcome (including abort counts) is byte-identical across every
    runtime and seed.  Commit order is (priority, batch index) with the
    priority rotating per round: the equivalent serial order of the
    whole run is (round, priority, batch index), and rotation bounds
    starvation — a retried transaction commits unconditionally once its
    thread reaches priority 0. *)

val priority_of : round:int -> nthreads:int -> int -> int
val tid_of_priority : round:int -> nthreads:int -> int -> int

type t
(** One worker's arbitration state, reused for the whole run: a
    written-key mark per key, cleared by bumping a round stamp rather
    than by allocating a fresh array per round. *)

val create : unit -> t

val arbitrate : t -> round:int -> nthreads:int -> self:int -> Bytes.t array -> int
(** [arbitrate t ~round ~nthreads ~self intents] decides [self]'s
    transactions, where [intents.(tid)] holds thread [tid]'s intent
    region in the {!Intent} wire format (bytes past the encoded round
    are ignored).  It walks the wire format directly, in commit order,
    and stops after [self]'s priority slot: a thread's verdicts depend
    only on the threads ordered before it and on its own earlier
    transactions.  A transaction aborts iff its read or write set
    intersects an earlier-ordered committed transaction's write set.

    Returns the verdicts as a bit set: bit [bi] is set iff [self]'s
    transaction [bi] (batch order) commits; read it with {!commits}.
    Allocates nothing.  Raises [Invalid_argument] if [self] published
    more transactions than an int has bits ([Sys.int_size - 1]). *)

val commits : int -> int -> bool
(** [commits verdicts bi] — whether transaction [bi] commits. *)

(** FastTrack-style happens-before classification of merge conflicts.

    The detector replays a runtime's event stream ({!Runtime.Rt_event})
    with vector clocks: [Release]/[Acquire] edges build the
    happens-before relation, and every [Conflict] event — a byte run the
    last-writer-wins merge silently resolved (paper section 2.5),
    stamped by the runtime with the loser's release epoch at the start
    of the chunk that wrote it — is classified as

    - {e sync-ordered}: some chain of synchronization edges orders the
      loser's chunk before the winner's, so the merge outcome is forced
      and every schedule produces it; or
    - {e racy}: the two writers' chunks are concurrent, so the bytes'
      final value is an accident of commit order — a genuine data race
      that determinism is papering over.

    Under a deterministic runtime the event stream is seed-invariant,
    so the verdict sequence (and any report built from it) is too: race
    reports are reproducible artifacts, the payoff Deterministic
    Consistency and Pot argue for.

    {2 Epoch optimization}

    A conflict stamped with loser epoch [e] is ordered iff the winner
    has (transitively) acquired the loser's [e]-th release or a later
    one.  The detector decides that with a single component comparison
    against the winner's clock, FastTrack's O(1) same-epoch trick.  The
    naive oracle keeps every clock each thread has ever published and
    scans the loser's release history pointwise.  The two are provably
    equivalent (a thread's clock is monotone, and another thread's
    component only enters a clock via joins against that thread's
    released clocks); test/race keeps the oracle and checks that they
    agree on random streams and on recorded runs. *)

type verdict = Racy | Sync_ordered

type finding = {
  event : Runtime.Rt_event.t;  (** the [Conflict] event, verbatim *)
  verdict : verdict;
  winner_clock : Hb.Vector_clock.t;
      (** the winner's chunk clock when the conflict was classified *)
  via : string option;
      (** the last object the winner acquired, as a hint to which
          synchronization (if any) ordered the chunks *)
}

type t

val create : unit -> t

val observer : t -> Runtime.Rt_event.t -> unit
(** Feed one event.  Pass this as the [?observer] of {!Runtime.Run.run}. *)

val findings : t -> finding list
(** All classified conflicts, in stream order. *)

val events : t -> int
(** Total events consumed (all constructors). *)

val conflicts : t -> int
val racy : t -> int
val sync_ordered : t -> int

val conflict_bytes : t -> int
(** Total bytes across all conflict runs. *)

val racy_bytes : t -> int

(** Transaction descriptors.

    An [Update] reads a set of key ranges and rewrites a set of keys; a
    [Snapshot] is read-only and is served copy-free from a pinned
    version — it never validates and never aborts.  Write values are a
    function of the values read ({!new_value}), so any serialization
    error propagates into the store bytes and the oracle catches it. *)

type kind = Update | Snapshot

type t = {
  seq : int;  (** per-thread request ordinal *)
  kind : kind;
  reads : (int * int) list;  (** (first_key, length) ranges *)
  writes : int list;  (** distinct keys; empty for [Snapshot] *)
}

val max_reads : int
(** Most read ranges per transaction ({!check}-enforced); with
    {!max_writes} it bounds the per-round intent-region footprint. *)

val max_writes : int

val entries : t -> int
(** Total intent entries (read ranges + write keys). *)

val check : t -> unit
(** Raise [Invalid_argument] on out-of-range keys, duplicate writes, or
    a writing snapshot. *)

val new_value : old:int -> read_sum:int -> seq:int -> nth:int -> int
(** Committed value of the [nth] write key of transaction [seq] given
    the pre-state [old] and the sum over the read set. *)

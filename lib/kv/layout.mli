(** Heap geometry of the KV store: key slots, status words, and
    per-thread intent regions.

    Keys are dense 16-byte slots (8-byte value + 8-byte version word) at
    the bottom of the heap, 16 to a 256-byte page, so the keyspace is
    implicitly sharded onto page ranges — neighbouring keys contend at
    page granularity and the segment's shard map spreads the key range
    across the per-shard commit locks of PR 7. *)

val page_size : int
val n_keys : int
val key_bytes : int

val value_addr : int -> int
(** Byte address of key [k]'s 8-byte value. *)

val ver_addr : int -> int
(** Byte address of key [k]'s version word (bumped once per committed
    write; the read-set version of the ordered-TL2 validation). *)

val max_threads : int

val remaining_addr : int -> int
(** Requests (including retries) thread [tid] still has to serve;
    written by the owner each round, read by all threads to decide
    termination. *)

val checksum_addr : int -> int
val commits_addr : int -> int
val aborts_addr : int -> int

val intent_addr : int -> int
(** Start of thread [tid]'s page-aligned intent region. *)

val intent_bytes : int
val heap_pages : int
(** Total heap size: data + status + [max_threads] intent regions. *)

val initial_value : int -> int
(** Deterministic initial value the store is seeded with. *)

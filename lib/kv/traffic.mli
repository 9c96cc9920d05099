(** Server-shaped traffic generators.

    Each shape is a deterministic stream of transactions per thread,
    seeded from [(shape, tid)] only — never from the runtime seed — so
    the request mix (and hence the determinism witness) is identical
    across runtimes and seeds. *)

type shape = Uniform | Zipf | Hot | Read_mostly | Write_heavy | Scan

val all : shape list
val name : shape -> string
(** Registry/bench name: ["kv_uniform"], ["kv_zipf"], ["kv_hot"],
    ["kv_read"], ["kv_write"], ["kv_scan"]. *)

val description : shape -> string

val gen : shape -> tid:int -> requests:int -> Txn.t list
(** The per-thread request stream, [seq] numbered 0..requests-1. *)

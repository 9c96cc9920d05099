(** FNV-1a 64-bit hashing.

    Used to build compact determinism witnesses: two executions are judged
    equal by comparing incremental hashes of their observable event streams
    and final memory images.  FNV-1a is stable across runs and platforms
    (unlike [Hashtbl.hash] on boxed values), which is what a witness
    requires. *)

type t = int64
(** Hash accumulator state. *)

val init : t
(** The FNV-1a offset basis. *)

val byte : t -> int -> t
(** Fold one byte (low 8 bits of the int) into the state. *)

val bytes : t -> Bytes.t -> t
(** Fold every byte of the buffer, in order.  An all-zero 8-byte word
    is folded as one multiply by [prime^8]: that is exactly what FNV-1a
    does to eight zero bytes, so the digest is plain FNV-1a, bit for
    bit, while a mostly-zero buffer such as a memory image costs one
    multiply per zero word. *)

val string : t -> string -> t
val int : t -> int -> t
(** Folds the 8 little-endian bytes of the int. *)

val to_hex : t -> string
(** The 16 lowercase hex digits of [Printf.sprintf "%016Lx"], built
    without [Printf]. *)

(** {1 Streaming state}

    A mutable accumulator for hashes folded one event at a time over a
    whole run.  A record field of type {!t} boxes a fresh [int64] on
    every update; a [stream] keeps its state in place, so none of the
    [add_*] folds allocates.  Each fold gives the same value as the
    matching pure function. *)

type stream

val stream : unit -> stream
(** A fresh accumulator at {!init}. *)

val value : stream -> t

val add_int : stream -> int -> unit
(** As {!int}. *)

val add_string : stream -> string -> unit
(** As {!string}. *)

val add_decimal : stream -> int -> unit
(** Folds the bytes of [string_of_int n] without building the string. *)

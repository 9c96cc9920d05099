(** Growable array (OCaml 5.1 has no [Dynarray] yet).

    Only the operations the simulator needs: append and random access.
    Version logs are append-only; reclamation marks entries rather than
    removing them. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] if out of bounds. *)

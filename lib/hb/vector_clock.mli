(** Vector clocks over thread ids.

    Component [t] of a clock counts how many commits by thread [t] the
    owner is guaranteed (by happens-before edges) to have observed.
    Missing components are 0.  Immutable. *)

type t

val empty : t
val get : t -> int -> int
val set : t -> int -> int -> t
(** [set vc tid n] — [n] must be >= the current component. *)

val join : t -> t -> t
(** Pointwise maximum. *)

val equal : t -> t -> bool

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Iterate non-zero components as [f tid count acc]. *)

val pp : Format.formatter -> t -> unit

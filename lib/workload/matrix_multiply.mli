(** Phoenix [matrix_multiply]: dense compute over private output tiles.

    No inter-thread synchronization at all between spawn and join; the
    pure embarrassingly-parallel case. *)

val make : ?scale:float -> unit -> Api.t

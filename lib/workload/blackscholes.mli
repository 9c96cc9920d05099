(** PARSEC [blackscholes]: data-parallel option pricing, one barrier per
    iteration block; near-zero sharing. *)

val make : ?scale:float -> unit -> Api.t

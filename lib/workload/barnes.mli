(** SPLASH-2 [barnes]: Barnes-Hut N-body.

    Tree build (per-cell locks) then force computation (parallel) per
    time step, with barriers between phases. *)

val make : ?scale:float -> unit -> Api.t

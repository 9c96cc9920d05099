(** SPLASH-2 [water_spatial]: spatial-decomposition molecular dynamics.
    Far fewer lock operations than water_nsquared (only box-boundary
    molecules need them); dominated by per-step barriers and private
    compute. *)

val make : ?scale:float -> unit -> Api.t

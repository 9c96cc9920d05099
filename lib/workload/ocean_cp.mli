(** SPLASH-2 [ocean_cp] (contiguous partitions): grid relaxation with
    many barrier-separated phases.  Each thread updates its own grid
    band plus the boundary rows it shares with neighbours, so every
    phase moves a large number of pages between threads — the dominant
    parallel-barrier beneficiary in Fig 13. *)

val make : ?scale:float -> unit -> Api.t

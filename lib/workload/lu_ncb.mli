(** SPLASH-2 [lu_ncb] (non-contiguous blocks): like lu_cb but each
    thread's matrix elements interleave with every other thread's on the
    same pages.  Every barrier commit conflicts on nearly every touched
    page, maximizing byte merges and page propagation — a Fig 11/12
    scalability-problem benchmark and a Fig 16 case where even LRC
    cannot help much. *)

val make : ?scale:float -> unit -> Api.t

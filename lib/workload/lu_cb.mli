(** SPLASH-2 [lu_cb] (contiguous blocks): blocked LU factorization where
    each thread owns contiguous blocks.  Barrier-heavy, but writes land
    on thread-private pages so commits are conflict-free. *)

val make : ?scale:float -> unit -> Api.t

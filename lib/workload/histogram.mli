(** Phoenix [histogram]: embarrassingly parallel pixel binning.

    Workers scan private slices of the input, accumulating into private
    bins, and merge into the shared histogram once at the end under a
    single lock.  Almost no synchronization: every library should be
    within noise of pthreads (Fig 10's left cluster). *)

val make : ?scale:float -> unit -> Api.t

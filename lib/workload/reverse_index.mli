(** Phoenix [reverse_index]: link extraction into a shared index.

    Very frequent, very short critical sections on a handful of index
    locks.  The flagship adaptive-coarsening benchmark (Fig 14): without
    coarsening every tiny critical section pays a full global
    coordination phase. *)

val make : ?scale:float -> unit -> Api.t

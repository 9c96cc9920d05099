(** PARSEC [canneal]: simulated annealing of a netlist.

    Barrier-heavy with a large volume of scattered writes to shared
    pages: the worst-case memory-propagation benchmark.  Threads swap
    elements all over the shared netlist, so nearly every page is dirty
    at every barrier, page-level conflicts force many byte merges, and
    the version-log allocation rate outruns Conversion's single-threaded
    GC (the paper's Fig 12 memory blow-up).  Each thread writes disjoint
    byte slots, so results remain well-defined. *)

val make : ?scale:float -> unit -> Api.t

(** PARSEC [dedup]: a 3-stage compression pipeline over bounded queues.

    Stage threads communicate through mutex+condvar queues with short
    critical sections at a high rate — like reverse_index, a program
    where DThreads/DWC's single global lock happens to work well and a
    naive fine-grained deterministic lock is pure overhead (paper
    section 5, Fig 10 discussion). *)

val make : ?scale:float -> unit -> Api.t

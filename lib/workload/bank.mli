(** The bank-transfer model in three synchronization styles — the race
    detector's calibration workload.

    {!racy} does unsynchronized read-modify-write transfers (the classic
    lost-update bug of paper sections 1-2): its conflicts must be
    reported as racy.  {!atomic} routes the RMW through
    [atomic_fetch_add] (the section 2.7 fix) and {!locked} serializes
    transfers under one mutex: both must audit clean. *)

val accounts : int
val initial_balance : int

val racy : Api.t
val atomic : Api.t
val locked : Api.t

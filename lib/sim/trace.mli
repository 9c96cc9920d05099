(** Append-only event trace.

    Runtimes record their externally observable events here (sync-operation
    order, application output).  A trace is a streaming hash: each event is
    folded into an FNV-1a state as it is recorded and then dropped, so a
    long run's witness costs constant memory and recording allocates
    nothing.  Keeping the events themselves (a run's schedule, for the
    CLI's [schedule] subcommand) is opt-in through [capture]. *)

type t

type event = { time : int; tid : int; label : string }

val create : ?capture:bool -> unit -> t
(** [capture] (default false) also retains every event in full; the hash
    is the same either way. *)

val record : t -> time:int -> tid:int -> label:string -> unit

val record_int : t -> time:int -> tid:int -> prefix:string -> int -> unit
(** [record_int t ~time ~tid ~prefix n] records the label
    [prefix ^ string_of_int n], building the string only when capturing:
    the hash is folded straight from [prefix] and [n]'s digits. *)

val length : t -> int
(** Number of events recorded (counted even when capture is off). *)

val events : t -> event list
(** Events in recording order.  Empty if capture was disabled. *)

val hash : t -> string
(** Hex digest over (tid, label) pairs in order.  Timestamps are excluded:
    determinism concerns the order and content of events, not wall-clock
    performance, which legitimately varies (paper section 3). *)

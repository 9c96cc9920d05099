(** Per-thread time accounting in the categories of the paper's Fig 15.

    Every nanosecond a simulated thread spends is attributed to exactly
    one category, so a breakdown sums to the thread's lifetime and the
    Fig 15 stacked bars can be regenerated.  Runtimes never pick a
    category themselves: they charge time in an {!Obs.Thread_state.t}
    and {!of_state} derives the category. *)

type category =
  | Chunk  (** useful local work (user instructions) *)
  | Determ_wait  (** waiting to become GMIC / for the round-robin turn / at the DThreads fence *)
  | Barrier_wait  (** waiting for other threads at an application barrier *)
  | Lock_wait  (** parked on a held lock or condition variable *)
  | Page_fault  (** copy-on-write fault handling *)
  | Commit  (** publishing dirty pages (includes byte merges) *)
  | Update  (** pulling remote versions into the local view *)
  | Library  (** counter reads, overflow interrupts, token and misc runtime overhead *)
  | Fork  (** thread creation / teardown / pool recycling *)

val all : category list

val of_state : Obs.Thread_state.t -> category
(** The category a profiler state's time is charged to.  This is the
    only state-to-category map: every runtime charges through it (see
    [Runtime.Rt_core]), so breakdowns and state intervals agree. *)

val category_name : category -> string

type t

val create : unit -> t
val add : t -> category -> int -> unit
(** Attribute [ns] nanoseconds (>= 0) to a category. *)

val get : t -> category -> int
val total : t -> int
val merge : t -> t -> t
(** Pointwise sum (for aggregating threads). *)

val fractions : t -> (category * float) list
(** Share of total per category, in {!all} order; all zeros if empty. *)

val pp : Format.formatter -> t -> unit

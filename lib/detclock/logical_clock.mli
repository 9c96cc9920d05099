(** Deterministic logical clocks (paper section 2.1).

    Each thread owns a retired-instruction counter.  The registry exposes
    the {e published} value of every counter: the value the rest of the
    system can see, which lags the thread's actual progress between
    performance-counter overflows (section 3.2).  Deterministic ordering
    is defined over published values: the thread with the {b g}lobal
    {b m}inimum {b i}nstruction {b c}ount — ties broken by thread id — is
    the GMIC thread and is the only one allowed to take the global token.

    A thread can {e depart} from GMIC consideration (the paper's
    [clockDepart()], used when blocking on a held lock so others keep
    making progress) and later re-{e arrive}.  {e pause}/{e resume} model
    the paper's [clockPause()]/[clockResume()]: while paused, a thread is
    executing runtime-library code whose instructions must not count
    (they are nondeterministic); ticking a paused clock is a bug and
    raises.

    The registry maintains incremental (published, tid) min-heap indexes
    over the active clocks and over the token's waiters, so {!gmic},
    {!is_gmic} and {!next_waiting_gap} are O(1) reads; every clock
    mutation updates the indexes in O(log n).  This mirrors the paper's
    requirement (sections 3.2, 3.6) that GMIC arbitration be cheap enough
    to run at every publication point. *)

type t
(** Registry of all thread clocks. *)

type clock
(** One thread's clock handle. *)

val create : unit -> t

val register : t -> tid:int -> clock
(** Add a thread with published count 0.  Raises if [tid] already
    registered and still live. *)

val tid : clock -> int
val published : clock -> int

val tick : clock -> int -> unit
(** Advance the thread's count by [n] retired instructions and publish it.
    Raises [Invalid_argument] if the clock is paused or finished. *)

val pause : clock -> unit
val resume : clock -> unit
val is_paused : clock -> bool

val depart : clock -> unit
(** Remove from GMIC consideration ([clockDepart]). Idempotent. *)

val arrive : clock -> unit
(** Rejoin GMIC consideration. Idempotent. *)

val is_departed : clock -> bool

val finish : clock -> unit
(** Permanently remove the thread (thread exit). *)

val is_finished : clock -> bool

val fast_forward : clock -> to_count:int -> bool
(** [fast_forward c ~to_count] raises the clock to [to_count] if that is
    larger (paper section 3.5); returns whether it moved.  Allowed while
    paused (it happens inside the runtime library). *)

val gmic : t -> int option
(** Tid of the GMIC thread: minimal (published, tid) among live,
    non-departed threads.  [None] if no such thread.  O(1). *)

val gmic_tid : t -> int
(** Allocation-free {!gmic}: the GMIC tid, or -1 if no thread is
    active. *)

val is_gmic : t -> tid:int -> bool
(** True iff [tid] is live, non-departed, and equal to {!gmic}.  O(1). *)

val set_waiting : t -> tid:int -> bool -> unit
(** Mark/unmark [tid] as waiting for the global token.  Maintains the
    waiter index behind {!next_waiting_gap}; called by [Token.wait].
    The registry tracks the waiters of the single global token.  Raises
    if [tid] is not registered. *)

val is_waiting : t -> tid:int -> bool
(** True iff [tid] is marked waiting and active. *)

val waiting_count : t -> int
(** Number of active threads marked waiting.  O(1). *)

val next_waiting_gap : t -> tid:int -> int
(** For the adaptive-overflow rule (section 3.2): among active waiting
    threads [w] other than [tid], find the one with minimal
    (published, tid); return [count_w - count_tid + 1] — how many more
    instructions [tid] must retire before that waiter becomes GMIC — or
    [0] if nobody relevant is waiting.  The result may be [<= 0] when the
    waiter already precedes [tid]; callers treat any non-positive value
    as "no gap to target".  O(1). *)

val live_count : t -> int
val active_count : t -> int
(** Live and non-departed.  O(1). *)

val counts : t -> (int * int) list
(** [(tid, published)] for all live threads, ascending tid; for tests and
    debugging. *)

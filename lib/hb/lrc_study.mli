(** The memory-propagation study of paper section 5.3 / Fig 16.

    Consequence's TSO consistency makes every commit globally visible:
    each update pulls every page committed by other threads since the
    thread's last update.  A lazy-release-consistency (LRC) system would
    instead propagate pages only along happens-before edges: an acquire
    of object [o] obliges the acquirer to see exactly the writes that
    happened-before the matching release.

    This module replays the runtime's instrumentation events (commits,
    releases, acquires) with vector clocks — one per thread, per sync
    object and (logically) per page write — and counts, for each acquire,
    the pages whose visible version advances.  Summed over the run this
    is the page traffic an LRC implementation would pay, to compare with
    the TSO traffic the run actually measured.

    The paper reports an average LRC saving of only ~21% across the
    benchmarks with >= 10K page updates, barriers being the equalizer. *)

type result = {
  program : string;
  tso_pages : int;  (** pages propagated by the TSO runtime (measured) *)
  lrc_pages : int;  (** pages an LRC system would have propagated (replayed) *)
  acquires : int;
  commits : int;
  page_updates : int;  (** total page-commit events (Fig 16's >= 10K filter) *)
}

val reduction : result -> float
(** Fractional saving of LRC over TSO, in [\[0, 1\]]; 0 when TSO moved no
    pages. *)

type tracker

val create_tracker : unit -> tracker
val observer : tracker -> Runtime.Rt_event.t -> unit
val lrc_pages : tracker -> int
val acquires : tracker -> int
val commits : tracker -> int
val page_updates : tracker -> int

val run : ?seed:int -> ?nthreads:int -> Api.t -> result
(** Execute the program under Consequence-IC with tracking enabled. *)

(** Metrics registry: named counters and fixed-bucket histograms.

    The runtimes keep one registry per run and observe the quantities
    the paper's evaluation plots distributions of — token-hold time,
    commit time, pages per commit, determ-wait time, chunk length — so a
    single run yields latency percentiles, not just end-of-run sums.

    Histograms use fixed power-of-two buckets (bucket [i] covers values
    in [(2^(i-1), 2^i]], with a first bucket for 0..1).  Percentiles are
    estimated by linear interpolation inside the bucket where the rank
    falls, clamped by the exact observed min/max, so they are exact for
    the tails and within a factor-of-two bucket for the middle.  All
    operations are value-deterministic: snapshots are sorted by name and
    never depend on hash-table iteration order. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Bump a counter (created on first use). *)

val observe : t -> string -> int -> unit
(** Record a histogram observation; negative values raise
    [Invalid_argument]. *)

(** {1 Interned handles}

    A hot path that records to the same metric on every operation can
    intern the name once and skip the string-keyed lookup thereafter.
    Handles are lazy: nothing is registered until the first [count] /
    [record], so snapshots are identical to the string-keyed path. *)

type counter
type histogram

val counter : t -> string -> counter
val histogram : t -> string -> histogram

val count : counter -> int -> unit
(** Bump the interned counter by the given amount. *)

val record : histogram -> int -> unit
(** Record an observation through an interned handle; negative values
    raise [Invalid_argument]. *)

(** {1 Snapshots} *)

type hist = {
  hname : string;
  count : int;
  sum : int;
  min_v : int;  (** meaningful only when [count > 0] *)
  max_v : int;
  buckets : (int * int) list;
      (** (inclusive upper bound, observation count), ascending, only
          non-empty buckets *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  hists : hist list;  (** sorted by name *)
}

val snapshot : t -> snapshot

val percentile : hist -> float -> float
(** [percentile h 0.99] estimates the q-quantile, [0 <= q <= 1].
    Returns [nan] for an empty histogram. *)

val mean : hist -> float

val find_hist : snapshot -> string -> hist option
val counter_value : snapshot -> string -> int
(** 0 when absent. *)

val to_json : snapshot -> Json.t
val pp : Format.formatter -> snapshot -> unit
(** Human-readable dump: counters, then one line per histogram with
    count/mean/p50/p95/p99/p999/max.  The same quantiles (plus p999)
    appear in {!to_json}'s per-histogram objects. *)

(** Versioned memory segment — the core of Conversion (paper ref [23]).

    A segment is an array of pages with a linear, totally ordered history
    of {e versions}.  Version 0 is the zero-filled initial state; each
    commit installs immutable snapshots of the pages it modified and
    becomes version [n+1].  A reader at version [v] sees, for every page,
    the newest snapshot with version [<= v] — this is what lets each
    thread operate on an isolated, consistent view while others commit.

    The total order of versions is exactly the total store order that
    makes the runtime TSO-consistent: all threads observe commits in
    version-number order (paper section 2.3–2.4).

    Snapshots are immutable by convention: neither the segment nor its
    callers ever mutate an installed page (workspaces copy on access). *)

type t

type version = int
(** Dense version numbers: 0 is initial, commits create 1, 2, ... *)

val create : ?name:string -> pages:int -> page_size:int -> unit -> t
val name : t -> string
val page_count : t -> int
val page_size : t -> int

val set_shards : t -> int -> unit
(** Split the segment into [n] contiguous page-range shards with
    independent live accounting and GC cursors (clamped to the page
    count; raises for [n < 1]).  Sharding changes how collection is
    scheduled (see {!gc_step}) and lets the runtime cost a commit by
    its largest per-shard footprint, never what is installed: installs
    are serial, and version numbering, the commit log, reads and
    digests are identical at any shard count.  Segments start with 1
    shard.  May be called at any time; per-shard accounting is
    recomputed from the histories. *)

val shards : t -> int
(** Current shard count (1 = unsharded). *)

val shard_of_page : t -> int -> int
(** Shard owning page [i]: [i * shards / pages] — contiguous ranges. *)

val current_version : t -> version
(** Newest committed version. *)

val read_page : t -> version:version -> int -> Page.t
(** [read_page t ~version i] is the snapshot of page [i] visible at
    [version].  The result must not be mutated.  O(log h) in the page's
    history depth [h], O(1) when [version] is the current version. *)

val last_mod : t -> int -> version
(** Version that last modified the page (0 if never written). *)

val read_bytes : t -> version:version -> addr:int -> len:int -> Bytes.t
(** Byte-addressed read of the committed image pinned at [version]:
    the result is assembled from, for every page the range touches, the
    newest snapshot with version [<= version].  Copy-free on the
    segment side — no workspace, no fault, no twin; the caller owns the
    returned buffer.  This is the substrate for snapshot (read-only)
    transactions: a reader that pins a version sees a consistent
    point-in-time image no matter what commits after the pin.

    GC safety: the pin must be [>= min_base] of any concurrent
    {!gc}/{!gc_step} call.  The collector keeps, per page, the newest
    snapshot at [<= min_base] plus everything newer, so any pinned
    version in [min_base, current] still resolves every page.  Runtime
    callers satisfy this by pinning at-or-above their own workspace
    base, which bounds [min_base] while the thread is live. *)

val commit : t -> committer:int -> pages:(int * Page.t) list -> version
(** Install the given page snapshots as a new version and return its
    number.  The segment takes ownership of the snapshot buffers.  Page
    indices must be distinct and in range. *)

val committer_of : t -> version -> int
(** Thread id recorded for a committed version.  Raises for version 0. *)

val modified_since : t -> since:version -> int list
(** Distinct pages modified by versions in [(since, current]], ascending. *)

val modified_since_by_others : t -> since:version -> tid:int -> int
(** Number of distinct pages modified in [(since, current]] by commits
    from threads other than [tid]; the inter-thread page-propagation
    metric of Fig 16. *)

val versions_created : t -> int

val touched_pages : t -> int
(** Pages ever written by any commit — the "populated page-table entries"
    a process fork must copy (paper section 3.3). *)

val live_snapshots : t -> int
(** Committed page snapshots currently retained (excludes the shared
    zero page).  This is the segment-side contribution to Fig 12's memory
    footprint; it grows until {!gc} reclaims obsolete snapshots. *)

val gc : t -> min_base:version -> budget:int -> int
(** Reclaim up to [budget] obsolete snapshots and return how many were
    reclaimed.  A snapshot of page [p] at version [v] is obsolete when a
    newer snapshot of [p] exists at some version [<= min_base], where
    [min_base] is the oldest version any live workspace still reads.
    The [budget] models Conversion's single-threaded garbage collector,
    which can be outpaced by allocation-heavy programs (paper section 5,
    Fig 12: canneal, lu_ncb). *)

val gc_step : t -> min_base:version -> max_pages:int -> int
(** One step of the incremental per-shard collector: scan at most
    [max_pages] pages of the next shard holding live snapshots (rotating
    over shards, each resuming at its own cursor) and return the
    snapshots reclaimed.  The bound is on pages {e scanned} — a hard
    per-step cost ceiling independent of how much garbage is found —
    which is what lets the runtime run steps in commit slack instead of
    a rate-limited background sweep.  Obsolescence is as in {!gc}. *)

val hash : t -> string
(** Hex digest of the full memory image at the current version; the
    determinism witness for final memory state. *)

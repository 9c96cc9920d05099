(** Per-thread isolated view of a {!Segment} — the software store buffer.

    Between synchronization operations a thread reads and writes only
    through its workspace (paper section 2.5):

    - reads of untouched pages come from the segment snapshot at the
      workspace's {e base version}, so remote commits stay invisible until
      an explicit {!update};
    - the first write to a page in a chunk triggers a simulated
      copy-on-write fault: the page is copied locally and a pristine
      {e twin} is kept for byte-granularity merging at commit;
    - subsequent reads of a dirty page see the thread's own writes — the
      store-buffer forwarding that TSO permits (a thread may observe its
      own stores before they are globally visible).

    {!commit} publishes the dirty pages as a new segment version (merging
    byte-wise against concurrent committers, last-writer-wins) and
    {!update} advances the base version to the newest committed one.
    Together they implement the paper's [convCommitAndUpdateMem()].

    Clean resident pages may internally {e alias} immutable segment
    snapshots instead of holding private copies: an unconflicted commit
    hands its buffer to the segment and keeps reading it in place, and
    an update that must refresh a stale resident simply re-points it at
    the fresh snapshot.  The next write fault copies the page back into
    private ownership, so the observable semantics (and all counters)
    are exactly those of the always-copy scheme, minus the copies.

    The workspace is a dense page table: one slot per segment page
    holding the resident copy (or a shared sentinel when the page is
    read from the base snapshot) and one state byte per page (owned,
    aliased or dirty).  A read, write or fault finds its page in O(1)
    with no hashing; each dirty page's twin sits beside it in the dirty
    list.  {!create} allocates the table, O(segment pages). *)

type t

type conflict = {
  cpage : int;  (** page index *)
  first_byte : int;  (** page-relative, inclusive *)
  last_byte : int;  (** page-relative, inclusive *)
  loser_tid : int;  (** committer whose bytes the merge overwrote *)
  loser_version : int;  (** the version those bytes were committed as *)
}
(** One run of bytes the last-writer-wins merge resolved against a
    concurrent committer: both this workspace's thread and some
    intervening commit changed every byte in the run since the twin was
    taken.  The loser is attributed to the newest version that modified
    the page in the conflict window (exact when one concurrent writer
    touched the page, the most recent writer otherwise). *)

type commit_info = {
  version : int;  (** new version number, or the old one if nothing was dirty *)
  pages_committed : int;
  pages_merged : int;  (** pages that hit a concurrent writer and needed a byte merge *)
  bytes_merged : int;
  committed_pages : int list;  (** indices of the committed pages, ascending *)
  conflicts : conflict list;
      (** byte-exact conflict tuples, ascending by (page, first_byte);
          always [[]] unless {!set_track_conflicts} enabled capture *)
}

type update_info = {
  from_version : int;
  to_version : int;
  pages_propagated : int;
      (** distinct pages committed by {e other} threads in the window —
          the inter-thread propagation volume of Fig 16 *)
  pages_refreshed : int;  (** resident local copies that had to be recopied *)
}

type stats = {
  mutable write_faults : int;
  mutable pages_committed : int;
  mutable pages_merged : int;
  mutable bytes_merged : int;
  mutable pages_propagated : int;
  mutable pages_refreshed : int;
  mutable commits : int;
  mutable updates : int;
}

val create : Segment.t -> tid:int -> t
val tid : t -> int
val base : t -> Segment.version

val read : t -> addr:int -> len:int -> Bytes.t
(** Read [len] bytes at byte address [addr] into a fresh buffer; may
    span pages. *)

val read_into : t -> addr:int -> Bytes.t -> unit
(** [read_into t ~addr buf] fills all of [buf] with the bytes at [addr],
    exactly what [read t ~addr ~len:(Bytes.length buf)] would return,
    without allocating.  A buffer of 2,048 bytes or more spans more than
    256 words, OCaml's limit for a minor-heap allocation, so {!read}
    allocates it directly in the major heap; a caller that reads the
    same region repeatedly should keep one buffer and read into it. *)

val write : t -> addr:int -> Bytes.t -> unit
(** Write the buffer at byte address [addr]; may span pages.  Faults in
    (and twins) every page touched for the first time this chunk. *)

val read_int64 : t -> addr:int -> int64
(** Little-endian convenience accessors built on {!read}/{!write}. *)

val write_int64 : t -> addr:int -> int64 -> unit
val read_int : t -> addr:int -> int
val write_int : t -> addr:int -> int -> unit

val is_dirty : t -> bool
val dirty_count : t -> int

val set_track_conflicts : t -> bool -> unit
(** Enable (or disable) conflict capture at commit time.  Off by default:
    the capture adds one extra three-way page scan per merged page, so
    runs that attach no observer pay nothing.  Capture never changes the
    merge result, the counters, or any simulated cost — it only fills
    [commit_info.conflicts]. *)

val track_conflicts : t -> bool

val resident_pages : t -> int
(** Local page copies currently held — the workspace-side contribution to
    Fig 12's memory footprint.  O(1), as is {!dirty_count}. *)

val commit : t -> commit_info
(** Publish dirty pages as a new version.  Clears the dirty set and twins;
    local copies stay resident.  Does {e not} move the base version (TSO
    only requires the thread's own stores to be ordered; seeing remote
    stores requires {!update}).  No-op (same version) if nothing dirty.
    Merging against concurrent committers and installing the snapshots
    both happen here, inside the caller's token hold; the pipelined
    runtime defers only the charged {e cost} of the install past the
    release, never the install itself. *)

val update : t -> update_info
(** Advance the base to the newest committed version, refreshing any
    resident local copies that remote commits (or our own merges)
    superseded.  Requires a clean workspace: raises [Invalid_argument] if
    dirty pages exist (commit first, as [convCommitAndUpdateMem] does).

    Cost: one scan of the segment's commit log over the window
    (base, current] ({!Segment.visit_window}), which yields both the
    distinct pages to check and [pages_propagated].  Only those pages are
    looked up in the page table, so an update costs the pages committed
    since the base, not the resident set. *)

val stats : t -> stats

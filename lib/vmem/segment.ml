type version = int

type entry = { committer : int; page_idxs : int array }

(* Per-page snapshot history: versions ascending, live entries in
   [off, off+len).  Appends go at the end (commits create monotonically
   increasing versions); GC drops an obsolete prefix by advancing [off].
   Lookup of "newest snapshot at version <= v" is a binary search, with an
   O(1) fast path for the common latest-version read.

   Publication protocol for lock-free readers (the real-multicore
   runtime reads pages ([read_page]) without the global runtime lock
   while the token holder appends snapshots):

   - The [vs]/[ps] pair lives behind an [Atomic]; a realloc blits the
     live entries into fresh arrays and publishes them with the SC
     store to [arrays], so a reader that loads the new pair also sees
     the blitted contents (no plain-pointer race).
   - [hist_append] fills the new slot with plain writes before the SC
     store to [len]; a reader loads [len] first, then [arrays].  SC
     ordering makes the [arrays] snapshot at least as new as the one
     in place when the observed [len] was published, and while [off]
     is 0 every snapshot holds the same entries at the same indices
     below that [len] — entries are immutable once published.
   - GC mutates [off]/drops entries, which is only safe single-domain —
     the domains runtime disables segment GC, so [off] stays 0 there. *)
type arrays = { vs : int array; ps : Page.t array }

type hist = {
  arrays : arrays Atomic.t;
  mutable off : int;
  len : int Atomic.t;
}

type t = {
  name : string;
  page_size : int;
  npages : int;
  histories : hist array;
  last_mod_arr : int array;
  versions : entry Sim.Vec.t; (* index i holds version i+1 *)
  zero : Page.t;
  mutable live : int;
  mutable gc_cursor : int;
  (* Generation-stamped scratch for distinct-page window scans: page [i]
     was already counted in the current scan iff [seen_gen.(i) = gen].
     Replaces a per-call hashtable with zero allocation. *)
  seen_gen : int array;
  mutable gen : int;
  (* Contiguous page-range shards with independent live accounting and
     GC cursors.  Version numbering and the [versions] log stay global —
     shards partition the collector's work (and the runtime's per-shard
     install cost), never the total store order. *)
  mutable nshards : int;
  mutable shard_live : int array;  (* live snapshots per shard; sums to [live] *)
  mutable shard_cursor : int array;  (* GC resume point, relative to shard start *)
  mutable gc_shard : int;  (* next shard the incremental collector steps *)
}

let hist_create () =
  { arrays = Atomic.make { vs = [||]; ps = [||] }; off = 0; len = Atomic.make 0 }

let hist_append h ~zero v p =
  let len = Atomic.get h.len in
  let a = Atomic.get h.arrays in
  let cap = Array.length a.vs in
  let a =
    if h.off + len <> cap then a
    else begin
      let a =
        if len * 2 <= cap && cap > 0 then begin
          (* Plenty of dead prefix: compact in place.  Only reachable
             after GC advanced [off], i.e. never under the domains
             runtime (no concurrent readers of the moved slots). *)
          Array.blit a.vs h.off a.vs 0 len;
          Array.blit a.ps h.off a.ps 0 len;
          Array.fill a.ps len (cap - len) zero;
          a
        end
        else begin
          let new_cap = max 4 (len * 2) in
          let vs = Array.make new_cap 0 and ps = Array.make new_cap zero in
          Array.blit a.vs h.off vs 0 len;
          Array.blit a.ps h.off ps 0 len;
          let na = { vs; ps } in
          (* Publish the grown arrays with the SC store so a reader
             that loads [na] also sees the blitted entries (see the
             [hist] comment). *)
          Atomic.set h.arrays na;
          na
        end
      in
      h.off <- 0;
      a
    end
  in
  a.vs.(h.off + len) <- v;
  a.ps.(h.off + len) <- p;
  (* Publish: every plain write above must be visible before the new
     length (see the [hist] comment). *)
  Atomic.set h.len (len + 1)

(* Newest entry with version <= v: returns its index (into the returned
   snapshot's vs/ps) and the snapshot itself, or -1.  Reads [len]
   before [arrays] so the snapshot is at least as new as the one the
   observed [len] was published against (see the [hist] comment). *)
let hist_lookup h v =
  let len = Atomic.get h.len in
  let a = Atomic.get h.arrays in
  if len = 0 || v < a.vs.(h.off) then (-1, a)
  else begin
    let last = h.off + len - 1 in
    if v >= a.vs.(last) then (last, a)
    else begin
      (* Invariant: vs.(lo) <= v < vs.(hi). *)
      let lo = ref h.off and hi = ref last in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if a.vs.(mid) <= v then lo := mid else hi := mid
      done;
      (!lo, a)
    end
  end

let hist_latest h ~zero =
  let len = Atomic.get h.len in
  if len = 0 then zero
  else
    let a = Atomic.get h.arrays in
    a.ps.(h.off + len - 1)

let create ?(name = "segment") ~pages ~page_size () =
  if pages <= 0 then invalid_arg "Segment.create: pages must be > 0";
  if page_size <= 0 then invalid_arg "Segment.create: page_size must be > 0";
  {
    name;
    page_size;
    npages = pages;
    histories = Array.init pages (fun _ -> hist_create ());
    last_mod_arr = Array.make pages 0;
    versions = Sim.Vec.create ();
    zero = Page.create ~size:page_size;
    live = 0;
    gc_cursor = 0;
    seen_gen = Array.make pages 0;
    gen = 0;
    nshards = 1;
    shard_live = [| 0 |];
    shard_cursor = [| 0 |];
    gc_shard = 0;
  }

let name t = t.name
let page_count t = t.npages
let page_size t = t.page_size
let current_version t = Sim.Vec.length t.versions
let shards t = t.nshards

(* Contiguous ranges: page [i] belongs to shard [i * nshards / npages],
   so shard [s] covers [ceil(s*npages/n), ceil((s+1)*npages/n)). *)
let shard_of_page t i = i * t.nshards / t.npages
let shard_start t s = (s * t.npages + t.nshards - 1) / t.nshards

let set_shards t n =
  if n < 1 then invalid_arg (Printf.sprintf "Segment %s: shards must be >= 1" t.name);
  let n = min n t.npages in
  t.nshards <- n;
  t.shard_live <- Array.make n 0;
  t.shard_cursor <- Array.make n 0;
  t.gc_shard <- 0;
  for i = 0 to t.npages - 1 do
    let s = shard_of_page t i in
    t.shard_live.(s) <- t.shard_live.(s) + Atomic.get t.histories.(i).len
  done

let check_page t i =
  if i < 0 || i >= t.npages then
    invalid_arg (Printf.sprintf "Segment %s: page %d out of bounds (%d pages)" t.name i t.npages)

let read_page t ~version i =
  check_page t i;
  let h = t.histories.(i) in
  let k, a = hist_lookup h version in
  if k < 0 then t.zero else a.ps.(k)

let last_mod t i =
  check_page t i;
  t.last_mod_arr.(i)

let read_bytes t ~version ~addr ~len =
  if addr < 0 || len < 0 || addr + len > t.npages * t.page_size then
    invalid_arg
      (Printf.sprintf "Segment %s: read_bytes [%d, %d) out of bounds" t.name addr (addr + len));
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pg = a / t.page_size and off = a mod t.page_size in
    let n = min (len - !pos) (t.page_size - off) in
    Bytes.blit (read_page t ~version pg) off out !pos n;
    pos := !pos + n
  done;
  out

let commit t ~committer ~pages =
  let vnum = current_version t + 1 in
  let idxs = Array.of_list (List.map fst pages) in
  t.gen <- t.gen + 1;
  Array.iter
    (fun i ->
      check_page t i;
      if t.seen_gen.(i) = t.gen then
        invalid_arg (Printf.sprintf "Segment %s: duplicate page %d in commit" t.name i);
      t.seen_gen.(i) <- t.gen)
    idxs;
  List.iter
    (fun (i, page) ->
      if Bytes.length page <> t.page_size then
        invalid_arg (Printf.sprintf "Segment %s: bad page size in commit" t.name);
      hist_append t.histories.(i) ~zero:t.zero vnum page;
      t.last_mod_arr.(i) <- vnum;
      let s = shard_of_page t i in
      t.shard_live.(s) <- t.shard_live.(s) + 1;
      t.live <- t.live + 1)
    pages;
  Sim.Vec.push t.versions { committer; page_idxs = idxs };
  vnum

let committer_of t v =
  if v <= 0 || v > current_version t then
    invalid_arg (Printf.sprintf "Segment %s: no committer for version %d" t.name v);
  (Sim.Vec.get t.versions (v - 1)).committer

let fold_modified_since t ~since f acc =
  let upto = current_version t in
  let acc = ref acc in
  for v = since + 1 to upto do
    let entry = Sim.Vec.get t.versions (v - 1) in
    acc := f !acc entry
  done;
  !acc

let modified_since t ~since =
  t.gen <- t.gen + 1;
  let distinct =
    fold_modified_since t ~since
      (fun acc entry ->
        Array.fold_left
          (fun acc i ->
            if t.seen_gen.(i) = t.gen then acc
            else begin
              t.seen_gen.(i) <- t.gen;
              i :: acc
            end)
          acc entry.page_idxs)
      []
  in
  List.sort (fun (a : int) b -> compare a b) distinct

let modified_since_by_others t ~since ~tid =
  t.gen <- t.gen + 1;
  fold_modified_since t ~since
    (fun acc entry ->
      if entry.committer = tid then acc
      else
        Array.fold_left
          (fun acc i ->
            if t.seen_gen.(i) = t.gen then acc
            else begin
              t.seen_gen.(i) <- t.gen;
              acc + 1
            end)
          acc entry.page_idxs)
    0

let versions_created t = current_version t
let live_snapshots t = t.live

let touched_pages t =
  let n = ref 0 in
  for i = 0 to t.npages - 1 do
    if t.last_mod_arr.(i) > 0 then incr n
  done;
  !n

let gc_page t ~min_base i =
  (* Keep the newest snapshot at version <= min_base plus everything newer;
     drop the obsolete prefix.  Returns snapshots dropped. *)
  let h = t.histories.(i) in
  let k, a = hist_lookup h min_base in
  if k <= h.off then 0
  else begin
    let dropped = k - h.off in
    (* Release the dropped snapshots so the runtime GC can reclaim them. *)
    Array.fill a.ps h.off dropped t.zero;
    h.off <- k;
    Atomic.set h.len (Atomic.get h.len - dropped);
    t.live <- t.live - dropped;
    let s = shard_of_page t i in
    t.shard_live.(s) <- t.shard_live.(s) - dropped;
    dropped
  end

let gc t ~min_base ~budget =
  (* With no live snapshots a full sweep would scan every page and drop
     nothing; skip it.  Commit-heavy workloads hit this constantly when
     the collector keeps up. *)
  if t.live = 0 then 0
  else begin
  let reclaimed = ref 0 in
  let scanned = ref 0 in
  while !reclaimed < budget && !scanned < t.npages do
    let i = t.gc_cursor in
    t.gc_cursor <- (t.gc_cursor + 1) mod t.npages;
    reclaimed := !reclaimed + gc_page t ~min_base i;
    incr scanned
  done;
  !reclaimed
  end

(* One step of the incremental per-shard collector: scan at most
   [max_pages] pages of the next shard that still holds live snapshots,
   resuming where that shard's cursor left off.  Unlike {!gc}, the work
   bound is on pages *scanned*, not snapshots reclaimed — each step has a
   hard cost ceiling regardless of how much garbage it finds, which is
   what lets the runtime hide steps in commit slack. *)
let gc_step t ~min_base ~max_pages =
  if max_pages <= 0 || t.live = 0 then 0
  else begin
    let n = t.nshards in
    let s = ref t.gc_shard and tried = ref 0 in
    while !tried < n && t.shard_live.(!s) = 0 do
      s := (!s + 1) mod n;
      incr tried
    done;
    if !tried = n then 0
    else begin
      let shard = !s in
      t.gc_shard <- (shard + 1) mod n;
      let start = shard_start t shard in
      let span = shard_start t (shard + 1) - start in
      let reclaimed = ref 0 and scanned = ref 0 in
      let limit = min max_pages span in
      while !scanned < limit && t.shard_live.(shard) > 0 do
        let i = start + t.shard_cursor.(shard) in
        t.shard_cursor.(shard) <- (t.shard_cursor.(shard) + 1) mod span;
        reclaimed := !reclaimed + gc_page t ~min_base i;
        incr scanned
      done;
      !reclaimed
    end
  end

let hash t =
  let h = ref Sim.Fnv.init in
  for i = 0 to t.npages - 1 do
    h := Page.hash_into !h (hist_latest t.histories.(i) ~zero:t.zero)
  done;
  Sim.Fnv.to_hex !h

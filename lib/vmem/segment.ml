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
     the domains runtime disables segment GC, so [off] stays 0 there.
   - The segment's [multi] bitmap (below) is written only by commit and
     GC, both under the token; [read_page] never reads it. *)
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
  mutable touched : int;  (* pages whose [last_mod_arr] entry is > 0 *)
  (* Bit [i land 31] of word [i lsr 5] is set iff page [i] holds >= 2
     live snapshots: the only pages GC can reclaim from.  The sweeps
     visit set bits only, so their host cost follows the multi-version
     pages, not the segment size. *)
  multi : int array;
  versions : entry Sim.Vec.t; (* index i holds version i+1 *)
  zero : Page.t;
  mutable live : int;
  mutable gc_cursor : int;
  (* Generation-stamped scratch for distinct-page scans (duplicate check
     at commit, [visit_window]): a page is marked in the current scan iff
     its stamp is from the scan's generation(s).  Zero allocation. *)
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

let mark t i = t.multi.(i lsr 5) <- t.multi.(i lsr 5) lor (1 lsl (i land 31))
let unmark t i = t.multi.(i lsr 5) <- t.multi.(i lsr 5) land lnot (1 lsl (i land 31))

(* Index of the lowest set bit of a nonzero word. *)
let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then (n := 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr n;
  !n

(* Lowest marked page in [lo, hi), or [hi]. *)
let first_multi t lo hi =
  if lo >= hi then hi
  else begin
    let w = ref (lo lsr 5) and last = (hi - 1) lsr 5 in
    let bits = ref (t.multi.(!w) land (-1 lsl (lo land 31))) in
    while !bits = 0 && !w < last do
      incr w;
      bits := t.multi.(!w)
    done;
    if !bits = 0 then hi else min hi ((!w lsl 5) + ctz !bits)
  end

(* The sweeps walk the [span] pages from [base] cyclically, starting at
   offset [from]: walk position [p] in [from, from + span) is page
   [base + p mod span].  Returns the first position [>= p] on a marked
   page, or [from + span] if none is left. *)
let next_multi t ~base ~span ~from p =
  if p < span then begin
    let i = first_multi t (base + p) (base + span) - base in
    if i < span then i else span + first_multi t base (base + from) - base
  end
  else span + first_multi t (base + p - span) (base + from) - base

let hist_append t i v p =
  let h = t.histories.(i) and zero = t.zero in
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
  Atomic.set h.len (len + 1);
  if len = 1 then mark t i

(* Newest of the [len] entries of [a] from [off] with version <= v: its
   index into [a], or -1.  Callers read [h.len] before [h.arrays], so
   [a] is at least as new as the one the observed [len] was published
   against (see the [hist] comment). *)
let hist_find a ~off ~len v =
  if len = 0 || v < a.vs.(off) then -1
  else begin
    let last = off + len - 1 in
    if v >= a.vs.(last) then last
    else begin
      (* Invariant: vs.(lo) <= v < vs.(hi). *)
      let lo = ref off and hi = ref last in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if a.vs.(mid) <= v then lo := mid else hi := mid
      done;
      !lo
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
    touched = 0;
    multi = Array.make ((pages + 31) / 32) 0;
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
  let len = Atomic.get h.len in
  let a = Atomic.get h.arrays in
  let k = hist_find a ~off:h.off ~len version in
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
      hist_append t i vnum page;
      if t.last_mod_arr.(i) = 0 then t.touched <- t.touched + 1;
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

(* Two generations per scan: [seen_gen.(i)] is [mine] once page [i] was
   visited and only [tid] has modified it so far in the window, [others]
   once another thread has too. *)
let visit_window t ~since ~tid f =
  let mine = t.gen + 1 and others = t.gen + 2 in
  t.gen <- others;
  let count = ref 0 in
  for v = since + 1 to current_version t do
    let entry = Sim.Vec.get t.versions (v - 1) in
    let by_other = entry.committer <> tid in
    let idxs = entry.page_idxs in
    for k = 0 to Array.length idxs - 1 do
      let i = idxs.(k) in
      let g = t.seen_gen.(i) in
      if g < mine then begin
        f i;
        t.seen_gen.(i) <- mine
      end;
      if by_other && g < others then begin
        t.seen_gen.(i) <- others;
        incr count
      end
    done
  done;
  !count

let versions_created t = current_version t
let live_snapshots t = t.live

let touched_pages t = t.touched

let gc_page t ~min_base i =
  (* Keep the newest snapshot at version <= min_base plus everything newer;
     drop the obsolete prefix.  Returns snapshots dropped.  The newest
     snapshot at <= min_base always stays, so a page that holds snapshots
     never loses its last one. *)
  let h = t.histories.(i) in
  let len = Atomic.get h.len in
  let a = Atomic.get h.arrays in
  let k = hist_find a ~off:h.off ~len min_base in
  if k <= h.off then 0
  else begin
    let dropped = k - h.off in
    (* Release the dropped snapshots so the runtime GC can reclaim them. *)
    Array.fill a.ps h.off dropped t.zero;
    h.off <- k;
    Atomic.set h.len (len - dropped);
    if len - dropped < 2 then unmark t i;
    t.live <- t.live - dropped;
    let s = shard_of_page t i in
    t.shard_live.(s) <- t.shard_live.(s) - dropped;
    dropped
  end

(* Both sweeps place their cursors exactly where a page-by-page sweep
   calling [gc_page] on every position would, but visit only marked
   pages: [gc_page] reclaims nothing from a page with fewer than 2 live
   snapshots and leaves it untouched. *)
let gc t ~min_base ~budget =
  let n = t.npages and from = t.gc_cursor in
  let reclaimed = ref 0 in
  let p = ref (if budget > 0 then next_multi t ~base:0 ~span:n ~from from else from + n) in
  while !p < from + n do
    let i = !p mod n in
    reclaimed := !reclaimed + gc_page t ~min_base i;
    if !reclaimed >= budget then begin
      (* Stop after the page that met the budget; a full cycle that
         falls short leaves the cursor where it started. *)
      t.gc_cursor <- (i + 1) mod n;
      p := from + n
    end
    else p := next_multi t ~base:0 ~span:n ~from (!p + 1)
  done;
  !reclaimed

(* One step of the incremental per-shard collector: collect within the
   next [max_pages] positions of the next shard that still holds live
   snapshots, resuming where that shard's cursor left off.  Unlike
   {!gc}, the work bound is on positions *swept*, not snapshots
   reclaimed — each step has a hard cost ceiling regardless of how much
   garbage it finds, which is what lets the runtime hide steps in commit
   slack.  A shard with live snapshots never empties (see [gc_page]),
   so the cursor always advances over the whole window. *)
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
      let base = shard_start t shard in
      let span = shard_start t (shard + 1) - base in
      let from = t.shard_cursor.(shard) in
      let stop = from + min max_pages span in
      t.shard_cursor.(shard) <- stop mod span;
      let reclaimed = ref 0 in
      let p = ref (next_multi t ~base ~span ~from from) in
      while !p < stop do
        reclaimed := !reclaimed + gc_page t ~min_base (base + (!p mod span));
        p := next_multi t ~base ~span ~from (!p + 1)
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

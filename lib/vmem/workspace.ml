type conflict = {
  cpage : int;
  first_byte : int;
  last_byte : int;
  loser_tid : int;
  loser_version : int;
}

type commit_info = {
  version : int;
  pages_committed : int;
  pages_merged : int;
  bytes_merged : int;
  committed_pages : int list;
  conflicts : conflict list;
}

type update_info = {
  from_version : int;
  to_version : int;
  pages_propagated : int;
  pages_refreshed : int;
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

(* The page table: [pages.(i)] is the thread's resident copy of page [i],
   or the shared [absent] sentinel (no real page is empty) when the
   thread reads page [i] from the segment snapshot at [base].  The state
   byte [state.[i]] says what a resident copy is:
   - [st_owned]: a private buffer the thread may mutate;
   - [st_aliased]: an immutable segment snapshot, installed by commit or
     update so that clean pages cost no copy; the next write fault
     copies it back into private ownership;
   - [st_dirty]: an owned buffer written this chunk, with its twin
     beside it in [dirty].
   A non-resident page has state [st_absent].  Pages never leave the
   table, so [resident] only grows. *)
let absent = Bytes.empty
let st_absent = '\000'
let st_owned = '\001'
let st_aliased = '\002'
let st_dirty = '\003'

type t = {
  seg : Segment.t;
  tid : int;
  mutable base : Segment.version;
  pages : Page.t array;
  state : Bytes.t;
  mutable resident : int;
  mutable dirty : (int * Page.t) list;  (* (page, twin), newest fault first *)
  mutable ndirty : int;
  mutable track_conflicts : bool;
  stats : stats;
}

let create seg ~tid =
  let n = Segment.page_count seg in
  {
    seg;
    tid;
    base = Segment.current_version seg;
    pages = Array.make n absent;
    state = Bytes.make n st_absent;
    resident = 0;
    dirty = [];
    ndirty = 0;
    track_conflicts = false;
    stats =
      {
        write_faults = 0;
        pages_committed = 0;
        pages_merged = 0;
        bytes_merged = 0;
        pages_propagated = 0;
        pages_refreshed = 0;
        commits = 0;
        updates = 0;
      };
  }

let tid t = t.tid
let segment t = t.seg
let base t = t.base
let stats t = t.stats
let is_dirty t = t.ndirty > 0
let dirty_count t = t.ndirty
let set_track_conflicts t on = t.track_conflicts <- on
let track_conflicts t = t.track_conflicts
let resident_pages t = t.resident

let page_size t = Segment.page_size t.seg

let check_range t ~addr ~len =
  let limit = Segment.page_count t.seg * page_size t in
  if addr < 0 || len < 0 || addr + len > limit then
    invalid_arg
      (Printf.sprintf "Workspace: access [%d, %d) outside segment of %d bytes" addr (addr + len)
         limit)

(* The page content this thread currently sees for [i]: its own local copy
   if resident, else the committed snapshot at its base version.  [i] is
   in range: every caller has passed [check_range]. *)
let view_page t i =
  let page = Array.unsafe_get t.pages i in
  if page != absent then page else Segment.read_page t.seg ~version:t.base i

(* Fault a page into the local workspace for writing: make sure the
   resident copy is an owned, mutable buffer, keep a twin with the
   pristine pre-write content for later diffing, mark dirty.  The twin
   never needs a copy when the pristine content is itself an immutable
   snapshot (first write to a non-resident or aliased page). *)
let fault_for_write t i =
  let st = Bytes.unsafe_get t.state i in
  if st <> st_dirty then begin
    let twin =
      if st = st_owned then Page.copy t.pages.(i)
      else begin
        let snap = view_page t i in
        if st = st_absent then t.resident <- t.resident + 1;
        t.pages.(i) <- Page.copy snap;
        snap
      end
    in
    Bytes.unsafe_set t.state i st_dirty;
    t.dirty <- (i, twin) :: t.dirty;
    t.ndirty <- t.ndirty + 1;
    t.stats.write_faults <- t.stats.write_faults + 1
  end

let read t ~addr ~len =
  check_range t ~addr ~len;
  let psize = page_size t in
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pg = a / psize and off = a mod psize in
    let n = min (len - !pos) (psize - off) in
    Bytes.blit (view_page t pg) off out !pos n;
    pos := !pos + n
  done;
  out

let write t ~addr buf =
  let len = Bytes.length buf in
  check_range t ~addr ~len;
  let psize = page_size t in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let pg = a / psize and off = a mod psize in
    let n = min (len - !pos) (psize - off) in
    fault_for_write t pg;
    Bytes.blit buf !pos t.pages.(pg) off n;
    pos := !pos + n
  done

(* 8-byte accessors: the common case (the access stays inside one page)
   reads or writes the resident buffer directly, with no intermediate
   allocation; only page-spanning accesses fall back to the generic
   buffer-based path.  Both are inlined into the [int] accessors, so the
   in-page case never boxes an [int64] either. *)
let read_spanning t ~addr = Bytes.get_int64_le (read t ~addr ~len:8) 0

let write_spanning t ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t ~addr b

let[@inline] read_int64 t ~addr =
  check_range t ~addr ~len:8;
  let psize = page_size t in
  let off = addr mod psize in
  if off + 8 <= psize then Bytes.get_int64_le (view_page t (addr / psize)) off
  else read_spanning t ~addr

let[@inline] write_int64 t ~addr v =
  check_range t ~addr ~len:8;
  let psize = page_size t in
  let off = addr mod psize in
  if off + 8 <= psize then begin
    let pg = addr / psize in
    fault_for_write t pg;
    Bytes.set_int64_le t.pages.(pg) off v
  end
  else write_spanning t ~addr v

let read_int t ~addr = Int64.to_int (read_int64 t ~addr)
let write_int t ~addr v = write_int64 t ~addr (Int64.of_int v)

let commit t =
  match t.dirty with
  | [] ->
      {
        version = Segment.current_version t.seg;
        pages_committed = 0;
        pages_merged = 0;
        bytes_merged = 0;
        committed_pages = [];
        conflicts = [];
      }
  | dirty ->
      let dirty = List.sort (fun ((a : int), _) (b, _) -> compare a b) dirty in
      let latest = Segment.current_version t.seg in
      let merged = ref 0 and merged_bytes = ref 0 in
      let conflicts = ref [] in
      let snapshots =
        List.map
          (fun (i, twin) ->
            let local = t.pages.(i) in
            if Segment.last_mod t.seg i > t.base then begin
              (* A concurrent committer beat us to this page: byte-merge our
                 modifications onto the newest committed copy.  The local
                 copy stays owned. *)
              let target = Page.copy (Segment.read_page t.seg ~version:latest i) in
              (if t.track_conflicts then begin
                 (* Capture before merge_into overwrites [target].  The
                    dirty list is ascending, so appending keeps conflicts
                    ordered by (page, first_byte). *)
                 let loser_version = Segment.last_mod t.seg i in
                 let loser_tid = Segment.committer_of t.seg loser_version in
                 if loser_tid <> t.tid then
                   List.iter
                     (fun (first_byte, last_byte) ->
                       conflicts :=
                         { cpage = i; first_byte; last_byte; loser_tid; loser_version }
                         :: !conflicts)
                     (Page.conflict_runs ~twin ~local ~target)
               end);
              let nbytes = Page.merge_into ~twin ~local ~target in
              incr merged;
              merged_bytes := !merged_bytes + nbytes;
              Bytes.set t.state i st_owned;
              (i, target)
            end
            else begin
              (* Unconflicted: hand the local buffer itself to the segment
                 as the immutable snapshot and keep it resident as an
                 alias — no copy.  The next write fault copies it back. *)
              Bytes.set t.state i st_aliased;
              (i, local)
            end)
          dirty
      in
      let version = Segment.commit t.seg ~committer:t.tid ~pages:snapshots in
      let committed = t.ndirty in
      t.dirty <- [];
      t.ndirty <- 0;
      t.stats.commits <- t.stats.commits + 1;
      t.stats.pages_committed <- t.stats.pages_committed + committed;
      t.stats.pages_merged <- t.stats.pages_merged + !merged;
      t.stats.bytes_merged <- t.stats.bytes_merged + !merged_bytes;
      {
        version;
        pages_committed = committed;
        pages_merged = !merged;
        bytes_merged = !merged_bytes;
        committed_pages = List.map fst dirty;
        conflicts = List.rev !conflicts;
      }

let update t =
  if is_dirty t then invalid_arg "Workspace.update: dirty pages present; commit first";
  let from_version = t.base in
  let to_version = Segment.current_version t.seg in
  if to_version = from_version then
    { from_version; to_version; pages_propagated = 0; pages_refreshed = 0 }
  else begin
    (* Only a page some commit in (from_version, to_version] touched can
       have gone stale, so the refresh visits those pages, not the
       resident set. *)
    let refreshed = ref 0 in
    let propagated =
      Segment.visit_window t.seg ~since:from_version ~tid:t.tid (fun i ->
          let local = t.pages.(i) in
          if local != absent then begin
            let fresh = Segment.read_page t.seg ~version:to_version i in
            if not (Page.equal local fresh) then begin
              incr refreshed;
              t.pages.(i) <- fresh;
              Bytes.set t.state i st_aliased
            end
          end)
    in
    t.base <- to_version;
    t.stats.updates <- t.stats.updates + 1;
    t.stats.pages_propagated <- t.stats.pages_propagated + propagated;
    t.stats.pages_refreshed <- t.stats.pages_refreshed + !refreshed;
    { from_version; to_version; pages_propagated = propagated; pages_refreshed = !refreshed }
  end

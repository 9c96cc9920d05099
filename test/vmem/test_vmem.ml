(* Tests for the Conversion-style versioned memory substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_bytes = Alcotest.(check string)

let bytes_of_string = Bytes.of_string
let string_of_bytes = Bytes.to_string

let make_segment ?(pages = 8) ?(page_size = 16) () =
  Vmem.Segment.create ~pages ~page_size ()

(* ------------------------------------------------------------------ *)
(* Page                                                               *)
(* ------------------------------------------------------------------ *)

let test_page_create_zeroed () =
  let p = Vmem.Page.create ~size:8 in
  check_bytes "zeroed" (String.make 8 '\000') (string_of_bytes p)

let test_page_copy_independent () =
  let p = Vmem.Page.create ~size:4 in
  let q = Vmem.Page.copy p in
  Bytes.set q 0 'x';
  check_bool "original untouched" true (Bytes.get p 0 = '\000')

let test_page_diff_count () =
  let twin = bytes_of_string "abcd" and local = bytes_of_string "axcy" in
  check_int "two bytes differ" 2 (Vmem.Page.diff_count ~twin ~local)

let test_page_diff_count_zero () =
  let twin = bytes_of_string "abcd" in
  check_int "identical" 0 (Vmem.Page.diff_count ~twin ~local:(Bytes.copy twin))

let test_page_merge_applies_only_changes () =
  (* Thread changed byte 1 (b->X).  Target meanwhile has byte 3 changed by
     someone else (d->Z).  Merge must keep Z and apply X. *)
  let twin = bytes_of_string "abcd" in
  let local = bytes_of_string "aXcd" in
  let target = bytes_of_string "abcZ" in
  let n = Vmem.Page.merge_into ~twin ~local ~target in
  check_int "one byte merged" 1 n;
  check_bytes "merged result" "aXcZ" (string_of_bytes target)

let test_page_merge_overlap_last_writer_wins () =
  (* Both modified byte 0; merging local over target overwrites: the later
     committer wins at byte granularity. *)
  let twin = bytes_of_string "abcd" in
  let local = bytes_of_string "Lbcd" in
  let target = bytes_of_string "Ebcd" in
  ignore (Vmem.Page.merge_into ~twin ~local ~target);
  check_bytes "later committer wins" "Lbcd" (string_of_bytes target)

let test_page_merge_length_mismatch () =
  let twin = bytes_of_string "abcd" and local = bytes_of_string "abc" in
  Alcotest.check_raises "mismatch raises"
    (Invalid_argument "Page.merge_into: length mismatch (4 vs 3)") (fun () ->
      ignore (Vmem.Page.merge_into ~twin ~local ~target:(Bytes.copy twin)))

(* ------------------------------------------------------------------ *)
(* Segment                                                            *)
(* ------------------------------------------------------------------ *)

let page_str seg ~version i = string_of_bytes (Vmem.Segment.read_page seg ~version i)

let mk_page seg s =
  let p = Vmem.Page.create ~size:(Vmem.Segment.page_size seg) in
  Bytes.blit_string s 0 p 0 (String.length s);
  p

let test_segment_initial_state () =
  let seg = make_segment () in
  check_int "version 0" 0 (Vmem.Segment.current_version seg);
  check_int "no snapshots" 0 (Vmem.Segment.live_snapshots seg);
  check_bytes "zero page" (String.make 16 '\000') (page_str seg ~version:0 3);
  check_int "never modified" 0 (Vmem.Segment.last_mod seg 3)

let test_segment_commit_creates_versions () =
  let seg = make_segment () in
  let v1 = Vmem.Segment.commit seg ~committer:0 ~pages:[ (1, mk_page seg "one") ] in
  let v2 = Vmem.Segment.commit seg ~committer:1 ~pages:[ (2, mk_page seg "two") ] in
  check_int "v1" 1 v1;
  check_int "v2" 2 v2;
  check_int "current" 2 (Vmem.Segment.current_version seg);
  check_int "committer v1" 0 (Vmem.Segment.committer_of seg 1);
  check_int "committer v2" 1 (Vmem.Segment.committer_of seg 2)

let test_segment_historical_reads () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "AAA") ]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "BBB") ]);
  check_bool "v0 sees zero" true (String.for_all (( = ) '\000') (page_str seg ~version:0 0));
  check_bool "v1 sees AAA" true (String.length (page_str seg ~version:1 0) = 16
                                 && String.sub (page_str seg ~version:1 0) 0 3 = "AAA");
  check_bool "v2 sees BBB" true (String.sub (page_str seg ~version:2 0) 0 3 = "BBB")

let test_segment_last_mod () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (4, mk_page seg "x") ]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (5, mk_page seg "y") ]);
  check_int "page 4 at v1" 1 (Vmem.Segment.last_mod seg 4);
  check_int "page 5 at v2" 2 (Vmem.Segment.last_mod seg 5);
  check_int "page 6 never" 0 (Vmem.Segment.last_mod seg 6)

let test_segment_duplicate_page_in_commit () =
  let seg = make_segment () in
  let raised =
    try
      ignore
        (Vmem.Segment.commit seg ~committer:0
           ~pages:[ (1, mk_page seg "a"); (1, mk_page seg "b") ]);
      false
    with Invalid_argument _ -> true
  in
  check_bool "duplicate rejected" true raised

(* [Segment.visit_window]'s visited pages, in visit order, and its count
   of pages other threads modified. *)
let window seg ~since ~tid =
  let visited = ref [] in
  let others = Vmem.Segment.visit_window seg ~since ~tid (fun i -> visited := i :: !visited) in
  (List.rev !visited, others)

let test_segment_modified_since () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (1, mk_page seg "a") ]);
  ignore (Vmem.Segment.commit seg ~committer:1 ~pages:[ (2, mk_page seg "b"); (3, mk_page seg "c") ]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (1, mk_page seg "d") ]);
  (* Each distinct page once, in order of first modification. *)
  let pages ~since = fst (window seg ~since ~tid:0) in
  Alcotest.(check (list int)) "since 0" [ 1; 2; 3 ] (pages ~since:0);
  Alcotest.(check (list int)) "since 1" [ 2; 3; 1 ] (pages ~since:1);
  Alcotest.(check (list int)) "since 2" [ 1 ] (pages ~since:2);
  Alcotest.(check (list int)) "since 3" [] (pages ~since:3)

let test_segment_modified_by_others () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (1, mk_page seg "a") ]);
  ignore (Vmem.Segment.commit seg ~committer:1 ~pages:[ (2, mk_page seg "b") ]);
  let others ~tid = snd (window seg ~since:0 ~tid) in
  check_int "tid 0 sees only tid 1's page" 1 (others ~tid:0);
  check_int "tid 1 sees only tid 0's page" 1 (others ~tid:1);
  check_int "tid 2 sees both" 2 (others ~tid:2);
  (* A page both this thread and another modified counts once. *)
  ignore
    (Vmem.Segment.commit seg ~committer:1 ~pages:[ (1, mk_page seg "c"); (2, mk_page seg "d") ]);
  check_int "tid 0: pages 1 and 2" 2 (others ~tid:0);
  check_int "tid 1: page 1" 1 (others ~tid:1);
  check_int "later window, tid 0" 2 (snd (window seg ~since:2 ~tid:0));
  check_int "later window, tid 1" 0 (snd (window seg ~since:2 ~tid:1))

let test_segment_gc_reclaims_obsolete () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "v1") ]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "v2") ]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "v3") ]);
  check_int "3 snapshots live" 3 (Vmem.Segment.live_snapshots seg);
  (* Everyone is at version >= 2: the v1 snapshot is obsolete, v2 must stay
     (it is the newest <= min_base), v3 stays. *)
  let reclaimed = Vmem.Segment.gc seg ~min_base:2 ~budget:100 in
  check_int "one reclaimed" 1 reclaimed;
  check_int "2 snapshots live" 2 (Vmem.Segment.live_snapshots seg);
  check_bool "v2 still readable" true (String.sub (page_str seg ~version:2 0) 0 2 = "v2");
  check_bool "v3 still readable" true (String.sub (page_str seg ~version:3 0) 0 2 = "v3")

let test_segment_gc_budget () =
  let seg = make_segment ~pages:4 () in
  for _ = 1 to 5 do
    ignore
      (Vmem.Segment.commit seg ~committer:0
         ~pages:[ (0, mk_page seg "x"); (1, mk_page seg "y") ])
  done;
  check_int "10 snapshots" 10 (Vmem.Segment.live_snapshots seg);
  (* At min_base 5 only the newest snapshot of each page is needed: 8 are
     obsolete, but the budget only allows a few. *)
  let r1 = Vmem.Segment.gc seg ~min_base:5 ~budget:3 in
  check_bool "budget respected" true (r1 <= 4 && r1 >= 3);
  let r2 = Vmem.Segment.gc seg ~min_base:5 ~budget:100 in
  check_int "rest reclaimed" (8 - r1) r2;
  check_int "only newest kept" 2 (Vmem.Segment.live_snapshots seg)

let test_segment_hash_changes () =
  let seg = make_segment () in
  let h0 = Vmem.Segment.hash seg in
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "zz") ]);
  check_bool "hash changed" false (h0 = Vmem.Segment.hash seg)

let test_segment_hash_stable_under_gc () =
  let seg = make_segment () in
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "a") ]);
  ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (0, mk_page seg "b") ]);
  let h = Vmem.Segment.hash seg in
  ignore (Vmem.Segment.gc seg ~min_base:2 ~budget:100);
  check_bytes "gc does not change current image" h (Vmem.Segment.hash seg)

(* ------------------------------------------------------------------ *)
(* Sharded commit / incremental GC                                    *)
(* ------------------------------------------------------------------ *)

let test_segment_shard_ranges () =
  let seg = make_segment ~pages:10 () in
  Vmem.Segment.set_shards seg 4;
  check_int "4 shards" 4 (Vmem.Segment.shards seg);
  (* shard_of_page must be monotone, start at 0, end at nshards-1, and
     cover every shard for a 10-page / 4-shard split. *)
  let shards = List.init 10 (Vmem.Segment.shard_of_page seg) in
  check_int "first page in shard 0" 0 (List.hd shards);
  check_int "last page in shard 3" 3 (List.nth shards 9);
  check_bool "monotone" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 9) shards) (List.tl shards));
  Alcotest.(check (list int)) "all shards populated" [ 0; 1; 2; 3 ]
    (List.sort_uniq compare shards);
  (* Clamped: more shards than pages degenerates to one page per shard. *)
  Vmem.Segment.set_shards seg 64;
  check_int "clamped to page count" 10 (Vmem.Segment.shards seg)

(* Apply the same commit list to a serial (1-shard) and an n-shard
   segment and require byte-identical state: same hash, same versions,
   same committers, same content at every version. *)
let apply_commits seg commits =
  List.iteri
    (fun i pages ->
      let pages =
        List.map
          (fun (pg, c) ->
            let p = Vmem.Page.create ~size:(Vmem.Segment.page_size seg) in
            Bytes.fill p 0 (Bytes.length p) c;
            (pg, p))
          pages
      in
      ignore (Vmem.Segment.commit seg ~committer:(i mod 4) ~pages))
    commits

let segments_equal ?(from_version = 0) sa sb =
  let va = Vmem.Segment.current_version sa in
  va = Vmem.Segment.current_version sb
  && Vmem.Segment.hash sa = Vmem.Segment.hash sb
  && List.for_all
       (fun v ->
         List.for_all
           (fun pg ->
             Bytes.equal
               (Vmem.Segment.read_page sa ~version:v pg)
               (Vmem.Segment.read_page sb ~version:v pg))
           (List.init (Vmem.Segment.page_count sa) Fun.id))
       (List.init (va - from_version + 1) (fun k -> from_version + k))
  && List.for_all
       (fun v -> Vmem.Segment.committer_of sa v = Vmem.Segment.committer_of sb v)
       (List.init va (fun k -> k + 1))

let test_segment_gc_step_equivalence () =
  (* Incremental per-shard gc_step, run to quiescence, reclaims exactly
     what one monolithic gc pass reclaims, and leaves identical state. *)
  let mk () = Vmem.Segment.create ~pages:16 ~page_size:8 () in
  let serial = mk () and sharded = mk () in
  Vmem.Segment.set_shards sharded 4;
  let commits =
    List.init 6 (fun r -> List.init 16 (fun pg -> (pg, Char.chr (65 + r))))
  in
  apply_commits serial commits;
  apply_commits sharded commits;
  let min_base = Vmem.Segment.current_version serial - 1 in
  let reclaimed_serial = Vmem.Segment.gc serial ~min_base ~budget:max_int in
  let reclaimed_sharded = ref 0 in
  (* Each step scans at most 8 pages of one shard; 4 shards x 4 pages
     means a handful of rotations reach quiescence. *)
  for _ = 1 to 16 do
    reclaimed_sharded :=
      !reclaimed_sharded + Vmem.Segment.gc_step sharded ~min_base ~max_pages:8
  done;
  check_int "same total reclaimed" reclaimed_serial !reclaimed_sharded;
  check_int "same live snapshots" (Vmem.Segment.live_snapshots serial)
    (Vmem.Segment.live_snapshots sharded);
  check_bool "identical from min_base" true (segments_equal ~from_version:min_base serial sharded)

let test_segment_gc_step_bound () =
  let seg = make_segment ~pages:8 () in
  Vmem.Segment.set_shards seg 2;
  for _ = 1 to 5 do
    ignore
      (Vmem.Segment.commit seg ~committer:0
         ~pages:(List.init 8 (fun pg -> (pg, mk_page seg "x"))))
  done;
  let min_base = Vmem.Segment.current_version seg in
  (* max_pages bounds pages *scanned*, and each page holds 4 obsolete
     snapshots: a 1-page step reclaims at most 4. *)
  let r = Vmem.Segment.gc_step seg ~min_base ~max_pages:1 in
  check_bool "per-step work bounded" true (r <= 4);
  check_bool "made progress" true (r > 0)

(* ------------------------------------------------------------------ *)
(* Workspace                                                          *)
(* ------------------------------------------------------------------ *)

let test_ws_read_initial_zero () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  check_bytes "zero read" (String.make 10 '\000')
    (string_of_bytes (Vmem.Workspace.read ws ~addr:37 ~len:10))

let test_ws_reads_own_writes () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:5 (bytes_of_string "hello");
  check_bytes "store-buffer forwarding" "hello"
    (string_of_bytes (Vmem.Workspace.read ws ~addr:5 ~len:5))

let test_ws_isolation_before_update () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "secret");
  ignore (Vmem.Workspace.commit w0);
  (* w1 has not updated: the commit must be invisible. *)
  check_bytes "isolated" (String.make 6 '\000')
    (string_of_bytes (Vmem.Workspace.read w1 ~addr:0 ~len:6));
  ignore (Vmem.Workspace.update w1);
  check_bytes "visible after update" "secret"
    (string_of_bytes (Vmem.Workspace.read w1 ~addr:0 ~len:6))

let test_ws_commit_then_own_view () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:0 (bytes_of_string "mine");
  ignore (Vmem.Workspace.commit ws);
  (* After commit (even before update) the thread still sees its own data:
     local copies stay resident. *)
  check_bytes "own writes persist" "mine"
    (string_of_bytes (Vmem.Workspace.read ws ~addr:0 ~len:4))

let test_ws_cross_page_write_read () =
  let seg = make_segment ~pages:4 ~page_size:8 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  let s = "0123456789abcdef" in
  Vmem.Workspace.write ws ~addr:4 (bytes_of_string s);
  check_bytes "spans pages" s (string_of_bytes (Vmem.Workspace.read ws ~addr:4 ~len:16));
  check_int "three pages dirtied" 3 (Vmem.Workspace.dirty_count ws)

let test_ws_write_fault_once_per_chunk () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:0 (bytes_of_string "a");
  Vmem.Workspace.write ws ~addr:1 (bytes_of_string "b");
  Vmem.Workspace.write ws ~addr:2 (bytes_of_string "c");
  check_int "one fault" 1 (Vmem.Workspace.stats ws).write_faults;
  ignore (Vmem.Workspace.commit ws);
  (* New chunk: writing the same page faults again. *)
  Vmem.Workspace.write ws ~addr:3 (bytes_of_string "d");
  check_int "fault in next chunk" 2 (Vmem.Workspace.stats ws).write_faults

let test_ws_disjoint_byte_merge () =
  (* Two threads write different bytes of the same page; both updates must
     survive (byte-granularity merging, paper section 2.5). *)
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "AA");
  Vmem.Workspace.write w1 ~addr:8 (bytes_of_string "BB");
  let c0 = Vmem.Workspace.commit w0 in
  let c1 = Vmem.Workspace.commit w1 in
  check_int "w0 clean commit" 0 c0.pages_merged;
  check_int "w1 merged" 1 c1.pages_merged;
  check_int "w1 merged 2 bytes" 2 c1.bytes_merged;
  let w2 = Vmem.Workspace.create seg ~tid:2 in
  check_bytes "both writes survive" "AA\000\000\000\000\000\000BB"
    (string_of_bytes (Vmem.Workspace.read w2 ~addr:0 ~len:10))

let test_ws_overlapping_merge_last_writer_wins () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "first");
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "SECON");
  ignore (Vmem.Workspace.commit w0);
  ignore (Vmem.Workspace.commit w1);
  let w2 = Vmem.Workspace.create seg ~tid:2 in
  check_bytes "last committer wins" "SECON"
    (string_of_bytes (Vmem.Workspace.read w2 ~addr:0 ~len:5))

let test_ws_merge_preserves_untouched_remote_bytes () =
  (* w1 writes bytes 0-1 and commits; w0, still at the old base, writes
     byte 4 of the same page and commits.  The merge must keep w1's bytes. *)
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "XY");
  ignore (Vmem.Workspace.commit w1);
  Vmem.Workspace.write w0 ~addr:4 (bytes_of_string "Q");
  ignore (Vmem.Workspace.commit w0);
  let w2 = Vmem.Workspace.create seg ~tid:2 in
  check_bytes "union of both" "XY\000\000Q"
    (string_of_bytes (Vmem.Workspace.read w2 ~addr:0 ~len:5))

let test_ws_update_with_dirty_raises () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write ws ~addr:0 (bytes_of_string "x");
  let raised = try ignore (Vmem.Workspace.update ws); false with Invalid_argument _ -> true in
  check_bool "raises" true raised

let test_ws_update_refreshes_residents () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  (* Make page 0 resident in w0 by writing it and committing. *)
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "old");
  ignore (Vmem.Workspace.commit w0);
  ignore (Vmem.Workspace.update w0);
  (* w1 overwrites the page. *)
  ignore (Vmem.Workspace.update w1);
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "new");
  ignore (Vmem.Workspace.commit w1);
  let info = Vmem.Workspace.update w0 in
  check_int "one page refreshed" 1 info.pages_refreshed;
  check_bytes "sees new content" "new"
    (string_of_bytes (Vmem.Workspace.read w0 ~addr:0 ~len:3))

let test_ws_propagation_excludes_own_commits () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write w0 ~addr:0 (bytes_of_string "self");
  ignore (Vmem.Workspace.commit w0);
  let info = Vmem.Workspace.update w0 in
  check_int "own commit not propagation" 0 info.pages_propagated;
  check_int "base advanced" 1 info.to_version

let test_ws_propagation_counts_remote () =
  let seg = make_segment () in
  let w0 = Vmem.Workspace.create seg ~tid:0 in
  let w1 = Vmem.Workspace.create seg ~tid:1 in
  Vmem.Workspace.write w1 ~addr:0 (bytes_of_string "a");
  Vmem.Workspace.write w1 ~addr:20 (bytes_of_string "b");
  ignore (Vmem.Workspace.commit w1);
  let info = Vmem.Workspace.update w0 in
  check_int "two remote pages" 2 info.pages_propagated

let test_ws_empty_commit_noop () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  let c = Vmem.Workspace.commit ws in
  check_int "no pages" 0 c.pages_committed;
  check_int "version unchanged" 0 c.version;
  check_int "no commit counted" 0 (Vmem.Workspace.stats ws).commits

let test_ws_int64_roundtrip () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write_int64 ws ~addr:12 0x1122334455667788L;
  Alcotest.(check int64) "roundtrip" 0x1122334455667788L (Vmem.Workspace.read_int64 ws ~addr:12);
  Vmem.Workspace.write_int ws ~addr:40 (-123456);
  check_int "int roundtrip" (-123456) (Vmem.Workspace.read_int ws ~addr:40)

let test_ws_int64_across_page_boundary () =
  let seg = make_segment ~pages:4 ~page_size:8 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  Vmem.Workspace.write_int64 ws ~addr:5 0x0102030405060708L;
  Alcotest.(check int64) "spans boundary" 0x0102030405060708L
    (Vmem.Workspace.read_int64 ws ~addr:5)

(* Once a page is faulted in, an in-page int access is a plain load or
   store: no boxed int64, no buffer. *)
let test_ws_int_in_page_allocates_nothing () =
  let seg = make_segment ~pages:4 ~page_size:64 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  for pg = 0 to 3 do
    Vmem.Workspace.write_int ws ~addr:(pg * 64) 0
  done;
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let addr = 8 * (i land 31) in
    Vmem.Workspace.write_int ws ~addr i;
    sum := !sum + Vmem.Workspace.read_int ws ~addr
  done;
  let w2 = Gc.minor_words () in
  check_int "minor words over 10k in-page int accesses" 0
    (int_of_float (w2 -. w1 -. (w1 -. w0)));
  check_int "values read back" (9_999 * 10_000 / 2) !sum

let test_ws_out_of_range () =
  let seg = make_segment ~pages:2 ~page_size:8 () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  let raised =
    try ignore (Vmem.Workspace.read ws ~addr:12 ~len:8); false
    with Invalid_argument _ -> true
  in
  check_bool "read oob raises" true raised;
  let raised =
    try Vmem.Workspace.write ws ~addr:(-1) (bytes_of_string "x"); false
    with Invalid_argument _ -> true
  in
  check_bool "write oob raises" true raised

let test_ws_read_does_not_fault () =
  let seg = make_segment () in
  let ws = Vmem.Workspace.create seg ~tid:0 in
  ignore (Vmem.Workspace.read ws ~addr:0 ~len:64);
  check_int "reads don't fault" 0 (Vmem.Workspace.stats ws).write_faults;
  check_int "reads don't make residents" 0 (Vmem.Workspace.resident_pages ws)

let test_page_diff_word_boundary () =
  (* A single mismatching byte at every word boundary (first/last byte of
     each 8-byte word) must be found by the word-level scan. *)
  let size = 32 in
  let twin = Bytes.make size 'a' in
  List.iter
    (fun i ->
      let local = Bytes.copy twin in
      Bytes.set local i 'b';
      check_int (Printf.sprintf "mismatch at byte %d" i) 1
        (Vmem.Page.diff_count ~twin ~local))
    [ 0; 7; 8; 15; 16; 23; 24; 31 ]

let test_page_diff_unaligned_tail () =
  (* Sizes that are not a multiple of 8 exercise the byte-tail loop. *)
  List.iter
    (fun size ->
      let twin = Bytes.make size 'a' in
      let local = Bytes.copy twin in
      if size > 0 then Bytes.set local (size - 1) 'b';
      check_int
        (Printf.sprintf "last byte of %d-byte page" size)
        (if size > 0 then 1 else 0)
        (Vmem.Page.diff_count ~twin ~local))
    [ 0; 1; 3; 7; 9; 15; 17; 63; 65 ]

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

(* Reference model: a flat byte array with the same write sequence. *)
let prop_single_thread_matches_flat_memory =
  QCheck.Test.make ~name:"single-thread workspace behaves like flat memory" ~count:100
    QCheck.(list (pair (int_bound 111) (string_of_size (Gen.int_range 1 16))))
    (fun writes ->
      let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
      let ws = Vmem.Workspace.create seg ~tid:0 in
      let model = Bytes.make 128 '\000' in
      List.iter
        (fun (addr, s) ->
          let len = min (String.length s) (128 - addr) in
          if len > 0 then begin
            let b = Bytes.of_string (String.sub s 0 len) in
            Vmem.Workspace.write ws ~addr b;
            Bytes.blit b 0 model addr len
          end)
        writes;
      Vmem.Workspace.read ws ~addr:0 ~len:128 = model)

let prop_commit_update_preserves_content =
  QCheck.Test.make ~name:"commit+update round-trips content to a fresh reader" ~count:100
    QCheck.(list (pair (int_bound 111) (string_of_size (Gen.int_range 1 16))))
    (fun writes ->
      let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
      let ws = Vmem.Workspace.create seg ~tid:0 in
      let model = Bytes.make 128 '\000' in
      List.iter
        (fun (addr, s) ->
          let len = min (String.length s) (128 - addr) in
          if len > 0 then begin
            let b = Bytes.of_string (String.sub s 0 len) in
            Vmem.Workspace.write ws ~addr b;
            Bytes.blit b 0 model addr len
          end)
        writes;
      ignore (Vmem.Workspace.commit ws);
      let reader = Vmem.Workspace.create seg ~tid:1 in
      ignore (Vmem.Workspace.update reader);
      Vmem.Workspace.read reader ~addr:0 ~len:128 = model)

let prop_disjoint_writers_merge_to_union =
  (* Threads write to disjoint byte ranges (same pages allowed); after all
     commit, memory is the union regardless of commit order. *)
  QCheck.Test.make ~name:"disjoint writers merge to union in any commit order" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 8) (int_bound 15)) bool)
    (fun (slots, flip) ->
      let slots = List.sort_uniq compare slots in
      let seg = Vmem.Segment.create ~pages:2 ~page_size:64 () in
      (* Even slots -> thread 0, odd -> thread 1; each slot is 8 bytes. *)
      let w0 = Vmem.Workspace.create seg ~tid:0 in
      let w1 = Vmem.Workspace.create seg ~tid:1 in
      let model = Bytes.make 128 '\000' in
      List.iter
        (fun slot ->
          let addr = slot * 8 in
          let ws = if slot mod 2 = 0 then w0 else w1 in
          let tag = Bytes.make 8 (Char.chr (65 + slot)) in
          Vmem.Workspace.write ws ~addr tag;
          Bytes.blit tag 0 model addr 8)
        slots;
      let first, second = if flip then (w1, w0) else (w0, w1) in
      ignore (Vmem.Workspace.commit first);
      ignore (Vmem.Workspace.commit second);
      let reader = Vmem.Workspace.create seg ~tid:2 in
      ignore (Vmem.Workspace.update reader);
      Vmem.Workspace.read reader ~addr:0 ~len:128 = model)

let prop_workspace_gc_interplay =
  (* Interleave writes/commits/updates from two workspaces with aggressive
     GC at the true min base: contents must match a flat reference model
     that applies the same committed stores in commit order. *)
  QCheck.Test.make ~name:"workspaces + gc match a flat commit-order model" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 24) (pair (int_bound 1) (pair (int_bound 30) (int_bound 255))))
    (fun ops ->
      let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
      let w = [| Vmem.Workspace.create seg ~tid:0; Vmem.Workspace.create seg ~tid:1 |] in
      let model = Bytes.make 128 '\000' in
      (* Writers touch disjoint byte ranges (even/odd 4-byte slots) so the
         committed image is schedule-independent. *)
      List.iteri
        (fun i (who, (slot, v)) ->
          let ws = w.(who) in
          let addr = (slot / 2 * 8) + (who * 4) in
          let buf = Bytes.make 4 (Char.chr v) in
          Vmem.Workspace.write ws ~addr buf;
          Bytes.blit buf 0 model addr 4;
          (* Commit and update every few steps; GC hard after each. *)
          if i mod 3 = who then begin
            ignore (Vmem.Workspace.commit ws);
            ignore (Vmem.Workspace.update ws);
            let min_base = min (Vmem.Workspace.base w.(0)) (Vmem.Workspace.base w.(1)) in
            ignore (Vmem.Segment.gc seg ~min_base ~budget:max_int)
          end)
        ops;
      ignore (Vmem.Workspace.commit w.(0));
      ignore (Vmem.Workspace.commit w.(1));
      let reader = Vmem.Workspace.create seg ~tid:2 in
      ignore (Vmem.Workspace.update reader);
      Vmem.Workspace.read reader ~addr:0 ~len:128 = model)

let prop_gc_never_affects_readers_at_min_base =
  QCheck.Test.make ~name:"gc preserves all reads at versions >= min_base" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 3) (int_bound 255)))
    (fun commits ->
      let seg = Vmem.Segment.create ~pages:4 ~page_size:4 () in
      List.iter
        (fun (pg, byte) ->
          let p = Vmem.Page.create ~size:4 in
          Bytes.fill p 0 4 (Char.chr byte);
          ignore (Vmem.Segment.commit seg ~committer:0 ~pages:[ (pg, p) ]))
        commits;
      let vmax = Vmem.Segment.current_version seg in
      let min_base = max 0 (vmax - 2) in
      let snapshot v =
        List.init 4 (fun i -> Bytes.to_string (Vmem.Segment.read_page seg ~version:v i))
      in
      let before = List.init (vmax - min_base + 1) (fun k -> snapshot (min_base + k)) in
      ignore (Vmem.Segment.gc seg ~min_base ~budget:max_int);
      let after = List.init (vmax - min_base + 1) (fun k -> snapshot (min_base + k)) in
      before = after)

let prop_sharded_commit_matches_serial =
  (* For random page sets (with overlaps across commits), random shard
     counts, and commits of up to 120 pages spanning many shards (all
     installed serially), the sharded segment is byte-for-byte the
     unsharded one — same hash, same per-version content, same
     committers — and stays so after incremental gc_step (driven by the
     per-shard live counters) vs monolithic gc, reclaiming the same
     number of snapshots. *)
  QCheck.Test.make ~name:"sharded commit + incremental gc match serial segment" ~count:60
    QCheck.(
      triple (int_range 2 9)
        (list_of_size (Gen.int_range 1 5)
           (list_of_size (Gen.int_range 1 120) (pair (int_bound 127) printable_char)))
        (int_bound 3))
    (fun (nshards, commits, gc_lag) ->
      let commits =
        List.map (List.sort_uniq (fun (a, _) (b, _) -> compare a b)) commits
      in
      let mk () = Vmem.Segment.create ~pages:128 ~page_size:16 () in
      let serial = mk () and sharded = mk () in
      Vmem.Segment.set_shards sharded nshards;
      apply_commits serial commits;
      apply_commits sharded commits;
      let eq_before = segments_equal serial sharded in
      let min_base = max 0 (Vmem.Segment.current_version serial - gc_lag) in
      let rs = Vmem.Segment.gc serial ~min_base ~budget:max_int in
      let rb = ref 0 in
      (* Enough bounded steps to reach quiescence: at most 9 shards of
         <= 64 pages each, 64 scanned per step. *)
      for _ = 1 to 4 * nshards do
        rb := !rb + Vmem.Segment.gc_step sharded ~min_base ~max_pages:64
      done;
      eq_before && rs = !rb
      && Vmem.Segment.live_snapshots serial = Vmem.Segment.live_snapshots sharded
      && segments_equal ~from_version:min_base serial sharded)

let prop_sharded_workspace_commit_matches_unsharded =
  (* Random write batches through two workspaces, replayed against a
     4-shard and an unsharded segment: the fused commits must produce
     identical commit_infos and identical committed images. *)
  QCheck.Test.make ~name:"workspace commit on 4-shard segment equals unsharded" ~count:80
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple bool (int_bound 111) (string_of_size (Gen.int_range 1 16))))
    (fun writes ->
      let mk shards =
        let seg = Vmem.Segment.create ~pages:8 ~page_size:16 () in
        Vmem.Segment.set_shards seg shards;
        (seg, Vmem.Workspace.create seg ~tid:0, Vmem.Workspace.create seg ~tid:1)
      in
      let seg_a, a0, a1 = mk 4 and seg_b, b0, b1 = mk 1 in
      List.iter
        (fun (who, addr, s) ->
          let len = min (String.length s) (128 - addr) in
          if len > 0 then begin
            let b = Bytes.of_string (String.sub s 0 len) in
            Vmem.Workspace.write (if who then a1 else a0) ~addr (Bytes.copy b);
            Vmem.Workspace.write (if who then b1 else b0) ~addr b
          end)
        writes;
      (* Same order on both segments: t0 then t1, so the second may
         merge over the first. *)
      let ca0 = Vmem.Workspace.commit a0 in
      let ca1 = Vmem.Workspace.commit a1 in
      let cb0 = Vmem.Workspace.commit b0 in
      let cb1 = Vmem.Workspace.commit b1 in
      let same (x : Vmem.Workspace.commit_info) (y : Vmem.Workspace.commit_info) =
        x.version = y.version
        && x.pages_committed = y.pages_committed
        && x.pages_merged = y.pages_merged
        && x.bytes_merged = y.bytes_merged
      in
      same ca0 cb0 && same ca1 cb1 && Vmem.Segment.hash seg_a = Vmem.Segment.hash seg_b)

(* Page-by-page reference for the collectors: [gc] and [gc_step] as
   they were before the sweeps visited only multi-version pages — every
   position they pass gets a [gc_page] call — over a model with its own
   histories, live counts and cursors. *)
module Ref_gc = struct
  type t = {
    npages : int;
    hist : (int * string) list array;  (* live snapshots, ascending versions *)
    mutable live : int;
    mutable cursor : int;
    nshards : int;
    shard_live : int array;
    shard_cursor : int array;
    mutable gc_shard : int;
  }

  let create ~pages ~shards =
    let nshards = min shards pages in
    {
      npages = pages;
      hist = Array.make pages [];
      live = 0;
      cursor = 0;
      nshards;
      shard_live = Array.make nshards 0;
      shard_cursor = Array.make nshards 0;
      gc_shard = 0;
    }

  let shard_of m i = i * m.nshards / m.npages
  let shard_start m s = ((s * m.npages) + m.nshards - 1) / m.nshards

  let commit m ~version pages =
    List.iter
      (fun (i, content) ->
        m.hist.(i) <- m.hist.(i) @ [ (version, content) ];
        m.live <- m.live + 1;
        let s = shard_of m i in
        m.shard_live.(s) <- m.shard_live.(s) + 1)
      pages

  (* Newest live snapshot at <= version; the zero page below the oldest. *)
  let read m ~version i =
    List.fold_left (fun acc (v, c) -> if v <= version then Some c else acc) None m.hist.(i)

  let touched m = Array.fold_left (fun n h -> if h = [] then n else n + 1) 0 m.hist

  let gc_page m ~min_base i =
    let rec prune dropped = function
      | _ :: ((v, _) :: _ as rest) when v <= min_base -> prune (dropped + 1) rest
      | l -> (dropped, l)
    in
    let dropped, l = prune 0 m.hist.(i) in
    m.hist.(i) <- l;
    m.live <- m.live - dropped;
    let s = shard_of m i in
    m.shard_live.(s) <- m.shard_live.(s) - dropped;
    dropped

  let gc m ~min_base ~budget =
    if m.live = 0 then 0
    else begin
      let reclaimed = ref 0 and scanned = ref 0 in
      while !reclaimed < budget && !scanned < m.npages do
        let i = m.cursor in
        m.cursor <- (m.cursor + 1) mod m.npages;
        reclaimed := !reclaimed + gc_page m ~min_base i;
        incr scanned
      done;
      !reclaimed
    end

  let gc_step m ~min_base ~max_pages =
    if max_pages <= 0 || m.live = 0 then 0
    else begin
      let n = m.nshards in
      let s = ref m.gc_shard and tried = ref 0 in
      while !tried < n && m.shard_live.(!s) = 0 do
        s := (!s + 1) mod n;
        incr tried
      done;
      if !tried = n then 0
      else begin
        let shard = !s in
        m.gc_shard <- (shard + 1) mod n;
        let start = shard_start m shard in
        let span = shard_start m (shard + 1) - start in
        let reclaimed = ref 0 and scanned = ref 0 in
        let limit = min max_pages span in
        while !scanned < limit && m.shard_live.(shard) > 0 do
          let i = start + m.shard_cursor.(shard) in
          m.shard_cursor.(shard) <- (m.shard_cursor.(shard) + 1) mod span;
          reclaimed := !reclaimed + gc_page m ~min_base i;
          incr scanned
        done;
        !reclaimed
      end
    end
end

type gc_op =
  | Commit of int list  (* page picks, taken mod the page count *)
  | Advance of int  (* move min_base forward, capped at the current version *)
  | Gc of int  (* budget *)
  | Step of int  (* max_pages *)

let gc_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun l -> Commit l) (list_size (int_range 1 12) (int_bound 199)));
        (2, map (fun k -> Advance k) (int_range 0 4));
        (3, map (fun b -> Gc b) (frequency [ (5, int_range 0 8); (1, return max_int) ]));
        (3, map (fun k -> Step k) (int_range 0 16));
      ])

let gc_op_print = function
  | Commit l -> "Commit [" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Advance k -> Printf.sprintf "Advance %d" k
  | Gc b -> Printf.sprintf "Gc %d" b
  | Step k -> Printf.sprintf "Step %d" k

let prop_gc_cursor_exact =
  (* Budget- and window-limited sweeps stop mid-segment, so a cursor
     left one page off changes which pages the next call collects.
     After every call: same return value, same live snapshots and
     touched pages, and the same [read_page] at every (page, version) —
     at versions >= min_base that is GC safety, and below min_base it
     shows exactly which prefixes were dropped, i.e. where each sweep
     stopped. *)
  QCheck.Test.make ~name:"gc and gc_step cursor-exact vs page-by-page reference" ~count:150
    QCheck.(
      triple (int_range 1 200) (oneofl [ 1; 3; 8 ])
        (make
           ~print:(fun ops -> String.concat "; " (List.map gc_op_print ops))
           Gen.(list_size (int_range 1 60) gc_op_gen)))
    (fun (pages, shards, ops) ->
      let page_size = 8 in
      let seg = Vmem.Segment.create ~pages ~page_size () in
      Vmem.Segment.set_shards seg shards;
      let m = Ref_gc.create ~pages ~shards in
      let min_base = ref 0 in
      let zero = String.make page_size '\000' in
      let same_reads () =
        let current = Vmem.Segment.current_version seg in
        List.for_all
          (fun i ->
            List.for_all
              (fun version ->
                Bytes.to_string (Vmem.Segment.read_page seg ~version i)
                = Option.value ~default:zero (Ref_gc.read m ~version i))
              (List.init (current + 1) Fun.id))
          (List.init pages Fun.id)
      in
      let same_counts () =
        Vmem.Segment.live_snapshots seg = m.Ref_gc.live
        && Vmem.Segment.touched_pages seg = Ref_gc.touched m
      in
      List.for_all
        (fun op ->
          match op with
          | Commit picks ->
              let idxs = List.sort_uniq compare (List.map (fun p -> p mod pages) picks) in
              let version = Vmem.Segment.current_version seg + 1 in
              let content i =
                let b = Bytes.create page_size in
                Bytes.set_int64_le b 0 (Int64.of_int ((version * 256) + i));
                b
              in
              let committed =
                Vmem.Segment.commit seg ~committer:0
                  ~pages:(List.map (fun i -> (i, content i)) idxs)
              in
              Ref_gc.commit m ~version
                (List.map (fun i -> (i, Bytes.to_string (content i))) idxs);
              committed = version && same_counts ()
          | Advance k ->
              min_base := min (Vmem.Segment.current_version seg) (!min_base + k);
              true
          | Gc budget ->
              let min_base = !min_base in
              Vmem.Segment.gc seg ~min_base ~budget = Ref_gc.gc m ~min_base ~budget
              && same_counts () && same_reads ()
          | Step max_pages ->
              let min_base = !min_base in
              Vmem.Segment.gc_step seg ~min_base ~max_pages
              = Ref_gc.gc_step m ~min_base ~max_pages
              && same_counts () && same_reads ())
        ops)

(* ------------------------------------------------------------------ *)
(* Workspace vs the hashtable reference                               *)
(* ------------------------------------------------------------------ *)

(* The hashtable-based workspace the dense page table replaced, kept as
   the oracle: polymorphic hashtables for resident copies, aliases,
   twins and the dirty set, and an update that rescans every resident
   page.  Two differences: the segment no longer counts
   [pages_propagated], so the oracle counts it from a commit log its
   workspaces share, and the 8-byte accessors always go through
   [read]/[write]. *)
module Ref_ws = struct
  open Vmem.Workspace

  type log = (int * int list) Sim.Vec.t  (* index v - 1: committer, pages of version v *)

  type t = {
    seg : Vmem.Segment.t;
    log : log;
    tid : int;
    mutable base : Vmem.Segment.version;
    local : (int, Vmem.Page.t) Hashtbl.t;
    aliased : (int, unit) Hashtbl.t;
    twins : (int, Vmem.Page.t) Hashtbl.t;
    dirty : (int, unit) Hashtbl.t;
    mutable track_conflicts : bool;
    stats : stats;
  }

  let create seg log ~tid =
    {
      seg;
      log;
      tid;
      base = Vmem.Segment.current_version seg;
      local = Hashtbl.create 64;
      aliased = Hashtbl.create 64;
      twins = Hashtbl.create 16;
      dirty = Hashtbl.create 16;
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

  let base t = t.base
  let is_dirty t = Hashtbl.length t.dirty > 0
  let dirty_count t = Hashtbl.length t.dirty
  let resident_pages t = Hashtbl.length t.local
  let page_size t = Vmem.Segment.page_size t.seg

  let modified_since_by_others t ~since =
    let seen = Hashtbl.create 16 in
    for v = since + 1 to Sim.Vec.length t.log do
      let committer, pages = Sim.Vec.get t.log (v - 1) in
      if committer <> t.tid then List.iter (fun i -> Hashtbl.replace seen i ()) pages
    done;
    Hashtbl.length seen

  let check_range t ~addr ~len =
    let limit = Vmem.Segment.page_count t.seg * page_size t in
    if addr < 0 || len < 0 || addr + len > limit then invalid_arg "Ref_ws: access out of range"

  let view_page t i =
    match Hashtbl.find_opt t.local i with
    | Some page -> page
    | None -> Vmem.Segment.read_page t.seg ~version:t.base i

  let fault_for_write t i =
    if not (Hashtbl.mem t.dirty i) then begin
      (match Hashtbl.find_opt t.local i with
      | Some page ->
          if Hashtbl.mem t.aliased i then begin
            Hashtbl.replace t.local i (Vmem.Page.copy page);
            Hashtbl.remove t.aliased i;
            Hashtbl.replace t.twins i page
          end
          else Hashtbl.replace t.twins i (Vmem.Page.copy page)
      | None ->
          let snap = Vmem.Segment.read_page t.seg ~version:t.base i in
          Hashtbl.replace t.local i (Vmem.Page.copy snap);
          Hashtbl.replace t.twins i snap);
      Hashtbl.replace t.dirty i ();
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
      Bytes.blit buf !pos (Hashtbl.find t.local pg) off n;
      pos := !pos + n
    done

  let read_int t ~addr = Int64.to_int (Bytes.get_int64_le (read t ~addr ~len:8) 0)

  let write_int t ~addr v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    write t ~addr b

  let commit t =
    let dirty =
      Hashtbl.fold (fun i () acc -> i :: acc) t.dirty []
      |> List.sort (fun (a : int) b -> compare a b)
    in
    match dirty with
    | [] ->
        {
          version = Vmem.Segment.current_version t.seg;
          pages_committed = 0;
          pages_merged = 0;
          bytes_merged = 0;
          committed_pages = [];
          conflicts = [];
        }
    | _ ->
        let latest = Vmem.Segment.current_version t.seg in
        let merged = ref 0 and merged_bytes = ref 0 in
        let conflicts = ref [] in
        let snapshots =
          List.map
            (fun i ->
              let local = Hashtbl.find t.local i in
              if Vmem.Segment.last_mod t.seg i > t.base then begin
                let target = Vmem.Page.copy (Vmem.Segment.read_page t.seg ~version:latest i) in
                let twin = Hashtbl.find t.twins i in
                (if t.track_conflicts then begin
                   let loser_version = Vmem.Segment.last_mod t.seg i in
                   let loser_tid = Vmem.Segment.committer_of t.seg loser_version in
                   if loser_tid <> t.tid then
                     List.iter
                       (fun (first_byte, last_byte) ->
                         conflicts :=
                           { cpage = i; first_byte; last_byte; loser_tid; loser_version }
                           :: !conflicts)
                       (Vmem.Page.conflict_runs ~twin ~local ~target)
                 end);
                let nbytes = Vmem.Page.merge_into ~twin ~local ~target in
                incr merged;
                merged_bytes := !merged_bytes + nbytes;
                (i, target)
              end
              else begin
                Hashtbl.replace t.aliased i ();
                (i, local)
              end)
            dirty
        in
        let version = Vmem.Segment.commit t.seg ~committer:t.tid ~pages:snapshots in
        Sim.Vec.push t.log (t.tid, dirty);
        let committed = List.length dirty in
        Hashtbl.reset t.dirty;
        Hashtbl.reset t.twins;
        t.stats.commits <- t.stats.commits + 1;
        t.stats.pages_committed <- t.stats.pages_committed + committed;
        t.stats.pages_merged <- t.stats.pages_merged + !merged;
        t.stats.bytes_merged <- t.stats.bytes_merged + !merged_bytes;
        {
          version;
          pages_committed = committed;
          pages_merged = !merged;
          bytes_merged = !merged_bytes;
          committed_pages = dirty;
          conflicts = List.rev !conflicts;
        }

  let update t =
    if is_dirty t then invalid_arg "Ref_ws.update: dirty pages present; commit first";
    let from_version = t.base in
    let to_version = Vmem.Segment.current_version t.seg in
    if to_version = from_version then
      { from_version; to_version; pages_propagated = 0; pages_refreshed = 0 }
    else begin
      let propagated = modified_since_by_others t ~since:from_version in
      let refreshed = ref 0 in
      Hashtbl.filter_map_inplace
        (fun i local ->
          if Vmem.Segment.last_mod t.seg i > from_version then begin
            let fresh = Vmem.Segment.read_page t.seg ~version:to_version i in
            if not (Vmem.Page.equal local fresh) then begin
              incr refreshed;
              Hashtbl.replace t.aliased i ();
              Some fresh
            end
            else Some local
          end
          else Some local)
        t.local;
      t.base <- to_version;
      t.stats.updates <- t.stats.updates + 1;
      t.stats.pages_propagated <- t.stats.pages_propagated + propagated;
      t.stats.pages_refreshed <- t.stats.pages_refreshed + !refreshed;
      { from_version; to_version; pages_propagated = propagated; pages_refreshed = !refreshed }
    end
end

type ws_op =
  | Read of int * int * int  (* workspace, addr, len *)
  | Write of int * int * string
  | Read_int of int * int
  | Write_int of int * int * int
  | Commit_ws of int
  | Update_ws of int
  | Collect of int  (* Segment.gc budget at the oldest workspace base *)

(* 6 pages of 16 bytes: spans of up to 24 bytes and 8-byte accesses at
   any offset straddle page boundaries; a 3-letter alphabet makes
   overlapping writes, byte conflicts and writes of unchanged bytes
   common. *)
let ref_pages = 6
let ref_page_size = 16
let ref_bytes = ref_pages * ref_page_size

let ws_op_gen nws =
  QCheck.Gen.(
    let ws = int_bound (nws - 1) in
    let span =
      int_range 1 24 >>= fun len ->
      map (fun addr -> (addr, len)) (int_bound (ref_bytes - len))
    in
    frequency
      [
        (3, map2 (fun k (addr, len) -> Read (k, addr, len)) ws span);
        ( 5,
          map3
            (fun k (addr, len) s -> Write (k, addr, String.sub s 0 len))
            ws span
            (string_size ~gen:(oneofl [ '\000'; 'a'; 'b' ]) (return 24)) );
        (2, map2 (fun k addr -> Read_int (k, addr)) ws (int_bound (ref_bytes - 8)));
        ( 3,
          map3
            (fun k addr v -> Write_int (k, addr, v))
            ws (int_bound (ref_bytes - 8)) (int_bound 3) );
        (3, map (fun k -> Commit_ws k) ws);
        (3, map (fun k -> Update_ws k) ws);
        (1, map (fun b -> Collect b) (oneofl [ 0; 1; 3; max_int ]));
      ])

let ws_op_print = function
  | Read (k, addr, len) -> Printf.sprintf "Read(%d,%d,%d)" k addr len
  | Write (k, addr, s) -> Printf.sprintf "Write(%d,%d,%S)" k addr s
  | Read_int (k, addr) -> Printf.sprintf "Read_int(%d,%d)" k addr
  | Write_int (k, addr, v) -> Printf.sprintf "Write_int(%d,%d,%d)" k addr v
  | Commit_ws k -> Printf.sprintf "Commit %d" k
  | Update_ws k -> Printf.sprintf "Update %d" k
  | Collect b -> Printf.sprintf "Collect %d" b

let ws_case_gen =
  QCheck.Gen.(
    int_range 2 4 >>= fun nws ->
    map2 (fun track ops -> (track, ops)) (list_repeat nws bool)
      (list_size (int_range 1 80) (ws_op_gen nws)))

let ws_case_print (track, ops) =
  Printf.sprintf "track=[%s] ops=[%s]"
    (String.concat ";" (List.map string_of_bool track))
    (String.concat "; " (List.map ws_op_print ops))

let prop_workspace_matches_reference =
  (* 2-4 workspaces on one segment (each with conflict capture on or
     off) against the same number of reference workspaces on a second
     segment, fed the same operations.  Every result must agree, and
     after every step so must each workspace's stats, resident and dirty
     counts and full view of memory, and the segments' live snapshots. *)
  QCheck.Test.make ~name:"workspace matches hashtable reference" ~count:200 ~long_factor:50
    (QCheck.make ~print:ws_case_print ws_case_gen)
    (fun (track, ops) ->
      let seg = Vmem.Segment.create ~pages:ref_pages ~page_size:ref_page_size () in
      let ref_seg = Vmem.Segment.create ~pages:ref_pages ~page_size:ref_page_size () in
      let log = Sim.Vec.create () in
      let wss =
        Array.of_list
          (List.mapi
             (fun tid on ->
               let ws = Vmem.Workspace.create seg ~tid in
               Vmem.Workspace.set_track_conflicts ws on;
               ws)
             track)
      in
      let refs =
        Array.of_list
          (List.mapi
             (fun tid on ->
               let r = Ref_ws.create ref_seg log ~tid in
               r.Ref_ws.track_conflicts <- on;
               r)
             track)
      in
      let agree k =
        let ws = wss.(k) and r = refs.(k) in
        Vmem.Workspace.stats ws = r.Ref_ws.stats
        && Vmem.Workspace.base ws = Ref_ws.base r
        && Vmem.Workspace.resident_pages ws = Ref_ws.resident_pages r
        && Vmem.Workspace.dirty_count ws = Ref_ws.dirty_count r
        && Vmem.Workspace.is_dirty ws = Ref_ws.is_dirty r
        && Bytes.equal
             (Vmem.Workspace.read ws ~addr:0 ~len:ref_bytes)
             (Ref_ws.read r ~addr:0 ~len:ref_bytes)
      in
      let outcome f = try Ok (f ()) with Invalid_argument _ -> Error () in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Read (k, addr, len) ->
                Bytes.equal
                  (Vmem.Workspace.read wss.(k) ~addr ~len)
                  (Ref_ws.read refs.(k) ~addr ~len)
            | Write (k, addr, s) ->
                Vmem.Workspace.write wss.(k) ~addr (Bytes.of_string s);
                Ref_ws.write refs.(k) ~addr (Bytes.of_string s);
                true
            | Read_int (k, addr) ->
                Vmem.Workspace.read_int wss.(k) ~addr = Ref_ws.read_int refs.(k) ~addr
            | Write_int (k, addr, v) ->
                Vmem.Workspace.write_int wss.(k) ~addr v;
                Ref_ws.write_int refs.(k) ~addr v;
                true
            | Commit_ws k -> Vmem.Workspace.commit wss.(k) = Ref_ws.commit refs.(k)
            | Update_ws k ->
                outcome (fun () -> Vmem.Workspace.update wss.(k))
                = outcome (fun () -> Ref_ws.update refs.(k))
            | Collect budget ->
                let min_base = Array.fold_left (fun m r -> min m (Ref_ws.base r)) max_int refs in
                Vmem.Segment.gc seg ~min_base ~budget = Vmem.Segment.gc ref_seg ~min_base ~budget
          in
          same
          && Vmem.Segment.live_snapshots seg = Vmem.Segment.live_snapshots ref_seg
          && List.for_all agree (List.init (Array.length wss) Fun.id))
        ops)

(* Byte-at-a-time oracles for the word-level page scans. *)
let oracle_diff_count ~twin ~local =
  let n = ref 0 in
  for i = 0 to Bytes.length twin - 1 do
    if Bytes.get twin i <> Bytes.get local i then incr n
  done;
  !n

let oracle_merge ~twin ~local ~target =
  let t = Bytes.copy target in
  let n = ref 0 in
  for i = 0 to Bytes.length twin - 1 do
    if Bytes.get twin i <> Bytes.get local i then begin
      Bytes.set t i (Bytes.get local i);
      incr n
    end
  done;
  (t, !n)

(* Page sizes deliberately straddle multiples of 8 so both the word loop
   and the byte tail are exercised; mutation positions are arbitrary, so
   word-boundary mismatches occur routinely. *)
let mutate base muts =
  let b = Bytes.copy base in
  let size = Bytes.length b in
  if size > 0 then List.iter (fun (pos, c) -> Bytes.set b (pos mod size) c) muts;
  b

let prop_word_diff_matches_byte_oracle =
  QCheck.Test.make ~name:"word-level diff_count matches byte-at-a-time oracle" ~count:300
    QCheck.(pair (int_range 0 67) (small_list (pair small_nat printable_char)))
    (fun (size, muts) ->
      let twin = Bytes.init size (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
      let local = mutate twin muts in
      Vmem.Page.diff_count ~twin ~local = oracle_diff_count ~twin ~local)

let prop_word_merge_matches_byte_oracle =
  QCheck.Test.make ~name:"word-level merge_into matches byte-at-a-time oracle" ~count:300
    QCheck.(
      triple (int_range 0 67)
        (small_list (pair small_nat printable_char))
        (small_list (pair small_nat printable_char)))
    (fun (size, muts, tmuts) ->
      let twin = Bytes.init size (fun i -> Char.chr ((i * 37) land 0xff)) in
      let local = mutate twin muts in
      let target = mutate twin tmuts in
      let expected, expected_n = oracle_merge ~twin ~local ~target in
      let actual = Bytes.copy target in
      let n = Vmem.Page.merge_into ~twin ~local ~target:actual in
      n = expected_n && Bytes.equal actual expected)

let () =
  Alcotest.run "vmem"
    [
      ( "page",
        [
          Alcotest.test_case "create zeroed" `Quick test_page_create_zeroed;
          Alcotest.test_case "copy independent" `Quick test_page_copy_independent;
          Alcotest.test_case "diff count" `Quick test_page_diff_count;
          Alcotest.test_case "diff count zero" `Quick test_page_diff_count_zero;
          Alcotest.test_case "merge applies only changes" `Quick test_page_merge_applies_only_changes;
          Alcotest.test_case "merge overlap last-writer-wins" `Quick
            test_page_merge_overlap_last_writer_wins;
          Alcotest.test_case "merge length mismatch" `Quick test_page_merge_length_mismatch;
          Alcotest.test_case "diff at word boundaries" `Quick test_page_diff_word_boundary;
          Alcotest.test_case "diff unaligned tail" `Quick test_page_diff_unaligned_tail;
        ] );
      ( "segment",
        [
          Alcotest.test_case "initial state" `Quick test_segment_initial_state;
          Alcotest.test_case "commit creates versions" `Quick test_segment_commit_creates_versions;
          Alcotest.test_case "historical reads" `Quick test_segment_historical_reads;
          Alcotest.test_case "last_mod" `Quick test_segment_last_mod;
          Alcotest.test_case "duplicate page rejected" `Quick test_segment_duplicate_page_in_commit;
          Alcotest.test_case "modified_since" `Quick test_segment_modified_since;
          Alcotest.test_case "modified by others" `Quick test_segment_modified_by_others;
          Alcotest.test_case "gc reclaims obsolete" `Quick test_segment_gc_reclaims_obsolete;
          Alcotest.test_case "gc budget" `Quick test_segment_gc_budget;
          Alcotest.test_case "hash changes" `Quick test_segment_hash_changes;
          Alcotest.test_case "hash stable under gc" `Quick test_segment_hash_stable_under_gc;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "shard ranges" `Quick test_segment_shard_ranges;
          Alcotest.test_case "gc_step equivalence" `Quick test_segment_gc_step_equivalence;
          Alcotest.test_case "gc_step work bound" `Quick test_segment_gc_step_bound;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "read initial zero" `Quick test_ws_read_initial_zero;
          Alcotest.test_case "reads own writes" `Quick test_ws_reads_own_writes;
          Alcotest.test_case "isolation before update" `Quick test_ws_isolation_before_update;
          Alcotest.test_case "own view after commit" `Quick test_ws_commit_then_own_view;
          Alcotest.test_case "cross-page write/read" `Quick test_ws_cross_page_write_read;
          Alcotest.test_case "fault once per chunk" `Quick test_ws_write_fault_once_per_chunk;
          Alcotest.test_case "disjoint byte merge" `Quick test_ws_disjoint_byte_merge;
          Alcotest.test_case "overlap last-writer-wins" `Quick
            test_ws_overlapping_merge_last_writer_wins;
          Alcotest.test_case "merge preserves remote bytes" `Quick
            test_ws_merge_preserves_untouched_remote_bytes;
          Alcotest.test_case "update with dirty raises" `Quick test_ws_update_with_dirty_raises;
          Alcotest.test_case "update refreshes residents" `Quick test_ws_update_refreshes_residents;
          Alcotest.test_case "propagation excludes own" `Quick
            test_ws_propagation_excludes_own_commits;
          Alcotest.test_case "propagation counts remote" `Quick test_ws_propagation_counts_remote;
          Alcotest.test_case "empty commit noop" `Quick test_ws_empty_commit_noop;
          Alcotest.test_case "int64 roundtrip" `Quick test_ws_int64_roundtrip;
          Alcotest.test_case "int64 across boundary" `Quick test_ws_int64_across_page_boundary;
          Alcotest.test_case "in-page int access allocates nothing" `Quick
            test_ws_int_in_page_allocates_nothing;
          Alcotest.test_case "out of range" `Quick test_ws_out_of_range;
          Alcotest.test_case "reads don't fault" `Quick test_ws_read_does_not_fault;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_single_thread_matches_flat_memory;
          QCheck_alcotest.to_alcotest prop_commit_update_preserves_content;
          QCheck_alcotest.to_alcotest prop_disjoint_writers_merge_to_union;
          QCheck_alcotest.to_alcotest prop_gc_never_affects_readers_at_min_base;
          QCheck_alcotest.to_alcotest prop_workspace_gc_interplay;
          QCheck_alcotest.to_alcotest prop_sharded_commit_matches_serial;
          QCheck_alcotest.to_alcotest prop_sharded_workspace_commit_matches_unsharded;
          QCheck_alcotest.to_alcotest prop_gc_cursor_exact;
          QCheck_alcotest.to_alcotest prop_workspace_matches_reference;
          QCheck_alcotest.to_alcotest prop_word_diff_matches_byte_oracle;
          QCheck_alcotest.to_alcotest prop_word_merge_matches_byte_oracle;
        ] );
    ]

(* Tests for the discrete-event simulation substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_same_seed_same_stream () =
  let a = Sim.Prng.create ~seed:42 and b = Sim.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.next_int64 a) (Sim.Prng.next_int64 b)
  done

let test_prng_different_seeds_differ () =
  let a = Sim.Prng.create ~seed:1 and b = Sim.Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Prng.next_int64 a <> Sim.Prng.next_int64 b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_prng_int_bounds () =
  let p = Sim.Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Sim.Prng.int p ~bound:13 in
    check_bool "in range" true (x >= 0 && x < 13)
  done

let test_prng_float_bounds () =
  let p = Sim.Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let x = Sim.Prng.float p in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_jitter_bounds () =
  let p = Sim.Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Sim.Prng.jitter p ~amplitude:0.2 in
    check_bool "in [0.8,1.2]" true (x >= 0.8 && x <= 1.2)
  done

let test_prng_split_independent () =
  let a = Sim.Prng.create ~seed:5 in
  let b = Sim.Prng.split a in
  (* After a split, both streams continue; they should not be identical. *)
  let same = ref true in
  for _ = 1 to 10 do
    if Sim.Prng.next_int64 a <> Sim.Prng.next_int64 b then same := false
  done;
  check_bool "split streams differ" false !same

let test_prng_copy_preserves_state () =
  let a = Sim.Prng.create ~seed:3 in
  ignore (Sim.Prng.next_int64 a);
  let b = Sim.Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Sim.Prng.next_int64 a)
    (Sim.Prng.next_int64 b)

let test_prng_exponential_positive () =
  let p = Sim.Prng.create ~seed:13 in
  for _ = 1 to 200 do
    check_bool "positive" true (Sim.Prng.exponential p ~mean:10.0 > 0.0)
  done

let test_prng_shuffle_permutation () =
  let p = Sim.Prng.create ~seed:17 in
  let arr = Array.init 50 (fun i -> i) in
  Sim.Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* The draws must stay bit-identical to the stream the golden witnesses
   and every simulated figure were computed with. *)
let test_prng_golden_streams () =
  let bits = Array.map Int64.bits_of_float in
  List.iter
    (fun (g : Prng_golden.stream) ->
      let name what = Printf.sprintf "seed %d %s" g.Prng_golden.seed what in
      let draws f =
        let p = Sim.Prng.create ~seed:g.Prng_golden.seed in
        Array.init 64 (fun i -> f p i)
      in
      Alcotest.(check (array int64))
        (name "next_int64") g.Prng_golden.int64s
        (draws (fun p _ -> Sim.Prng.next_int64 p));
      Alcotest.(check (array int64))
        (name "float") (bits g.Prng_golden.floats)
        (bits (draws (fun p _ -> Sim.Prng.float p)));
      Alcotest.(check (array int))
        (name "int") g.Prng_golden.ints
        (draws (fun p i -> Sim.Prng.int p ~bound:(1 + (977 * i))));
      Alcotest.(check (array int64))
        (name "jitter") (bits g.Prng_golden.jitters)
        (bits (draws (fun p _ -> Sim.Prng.jitter p ~amplitude:0.15))))
    Prng_golden.streams

(* Minor-heap words [f ()] allocates, net of the measurement itself. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  int_of_float (w2 -. w1 -. (w1 -. w0))

let test_prng_draws_allocate_nothing () =
  let p = Sim.Prng.create ~seed:1 in
  let acc = ref 0 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          acc := !acc + Sim.Prng.int p ~bound:1000
        done)
  in
  check_int "minor words over 10k int draws" 0 words;
  check_bool "drew something" true (!acc > 0)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_empty () =
  let h : int Sim.Heap.t = Sim.Heap.create () in
  check_bool "empty" true (Sim.Heap.is_empty h);
  check_int "length" 0 (Sim.Heap.length h);
  check_bool "pop none" true (Sim.Heap.pop h = None);
  check_bool "peek none" true (Sim.Heap.peek_key h = None)

let test_heap_orders_by_key () =
  let h = Sim.Heap.create () in
  List.iter (fun k -> Sim.Heap.push h ~key:k k) [ 5; 1; 4; 2; 3 ];
  let popped = List.init 5 (fun _ -> match Sim.Heap.pop h with Some (k, _) -> k | None -> -1) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] popped

let test_heap_fifo_on_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h ~key:7 v) [ "a"; "b"; "c"; "d" ];
  let popped =
    List.init 4 (fun _ -> match Sim.Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c"; "d" ] popped

let test_heap_interleaved_ties () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~key:2 "late-a";
  Sim.Heap.push h ~key:1 "early";
  Sim.Heap.push h ~key:2 "late-b";
  let popped =
    List.init 3 (fun _ -> match Sim.Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "key then seq" [ "early"; "late-a"; "late-b" ] popped

let test_heap_clear () =
  let h = Sim.Heap.create () in
  for i = 1 to 10 do
    Sim.Heap.push h ~key:i i
  done;
  Sim.Heap.clear h;
  check_bool "cleared" true (Sim.Heap.is_empty h)

let test_heap_to_list_nondestructive () =
  let h = Sim.Heap.create () in
  List.iter (fun k -> Sim.Heap.push h ~key:k k) [ 3; 1; 2 ];
  let l = Sim.Heap.to_list h in
  Alcotest.(check (list int)) "snapshot sorted" [ 1; 2; 3 ] (List.map fst l);
  check_int "heap unchanged" 3 (Sim.Heap.length h)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iter (fun k -> Sim.Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Sim.Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let prop_heap_stable_ties =
  QCheck.Test.make ~name:"heap preserves insertion order among equal keys" ~count:200
    QCheck.(list (pair (int_bound 5) (int_bound 10000)))
    (fun items ->
      let h = Sim.Heap.create () in
      List.iter (fun (k, v) -> Sim.Heap.push h ~key:k v) items;
      let rec drain acc =
        match Sim.Heap.pop h with
        | Some (k, v) -> drain ((k, v) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      (* Stable sort of the input by key must equal pop order. *)
      popped = List.stable_sort (fun (a, _) (b, _) -> compare a b) items)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_advance_accumulates () =
  let eng = Sim.Engine.create ~seed:0 () in
  let final = ref 0 in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 10;
         Sim.Engine.advance eng 15;
         final := Sim.Engine.now eng));
  Sim.Engine.run eng;
  check_int "time accumulated" 25 !final

let test_engine_parallel_threads_overlap () =
  (* Two fibers advancing 100ns each finish at t=100, not t=200: they run
     on separate simulated cores. *)
  let eng = Sim.Engine.create ~seed:0 () in
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.advance eng 100));
  ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.advance eng 100));
  Sim.Engine.run eng;
  check_int "parallel finish" 100 (Sim.Engine.now eng)

let test_engine_self_ids () =
  let eng = Sim.Engine.create ~seed:0 () in
  let ids = ref [] in
  for _ = 1 to 3 do
    ignore (Sim.Engine.spawn eng (fun () -> ids := Sim.Engine.self eng :: !ids))
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "ids in spawn order" [ 0; 1; 2 ] (List.rev !ids)

let test_engine_block_wakeup () =
  let eng = Sim.Engine.create ~seed:0 () in
  let woke_at = ref (-1) in
  let sleeper =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.block eng ~reason:"test";
        woke_at := Sim.Engine.now eng)
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 50;
         Sim.Engine.wakeup eng sleeper));
  Sim.Engine.run eng;
  check_int "woken at waker's time" 50 !woke_at

let test_engine_pending_wakeup_permit () =
  (* Wakeup posted before the target blocks must not be lost. *)
  let eng = Sim.Engine.create ~seed:0 () in
  let done_ = ref false in
  let target =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.advance eng 100;
        (* Waker has already fired by now. *)
        Sim.Engine.block eng ~reason:"should not stick";
        done_ := true)
  in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 10;
         Sim.Engine.wakeup eng target));
  Sim.Engine.run eng;
  check_bool "permit consumed" true !done_

let test_engine_deadlock_detection () =
  let eng = Sim.Engine.create ~seed:0 () in
  ignore (Sim.Engine.spawn eng ~name:"stuck" (fun () -> Sim.Engine.block eng ~reason:"forever"));
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let raised =
    try
      Sim.Engine.run eng;
      false
    with Sim.Engine.Deadlock msg ->
      check_bool "message mentions fiber" true (contains ~sub:"stuck" msg);
      check_bool "message mentions reason" true (contains ~sub:"forever" msg);
      true
  in
  check_bool "deadlock raised" true raised

let test_engine_spawn_from_fiber () =
  let eng = Sim.Engine.create ~seed:0 () in
  let child_ran_at = ref (-1) in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 30;
         ignore
           (Sim.Engine.spawn eng (fun () ->
                Sim.Engine.advance eng 5;
                child_ran_at := Sim.Engine.now eng))));
  Sim.Engine.run eng;
  check_int "child starts at parent's time" 35 !child_ran_at

let test_engine_exit_fiber () =
  let eng = Sim.Engine.create ~seed:0 () in
  let after_exit = ref false in
  let id =
    Sim.Engine.spawn eng (fun () ->
        if true then ignore (Sim.Engine.exit_fiber eng);
        after_exit := true)
  in
  Sim.Engine.run eng;
  check_bool "code after exit not run" false !after_exit;
  check_bool "fiber finished" true (Sim.Engine.is_finished eng id)

let test_engine_wakeup_finished_noop () =
  let eng = Sim.Engine.create ~seed:0 () in
  let id = Sim.Engine.spawn eng (fun () -> ()) in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 10;
         Sim.Engine.wakeup eng id));
  Sim.Engine.run eng;
  check_bool "no crash" true true

let test_engine_blocked_reason () =
  let eng = Sim.Engine.create ~seed:0 () in
  let observed = ref None in
  let sleeper = Sim.Engine.spawn eng (fun () -> Sim.Engine.block eng ~reason:"lock:A") in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Engine.advance eng 5;
         observed := Sim.Engine.blocked_reason eng sleeper;
         Sim.Engine.wakeup eng sleeper));
  Sim.Engine.run eng;
  Alcotest.(check (option string)) "reason visible" (Some "lock:A") !observed

let test_engine_stuck_budget () =
  let eng = Sim.Engine.create ~max_events:100 ~seed:0 () in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         while true do
           Sim.Engine.advance eng 1
         done));
  let raised = try Sim.Engine.run eng; false with Sim.Engine.Stuck _ -> true in
  check_bool "stuck raised" true raised

let test_engine_exception_propagates () =
  let eng = Sim.Engine.create ~seed:0 () in
  ignore (Sim.Engine.spawn eng (fun () -> failwith "boom"));
  let raised = try Sim.Engine.run eng; false with Failure m -> m = "boom" in
  check_bool "fiber exception escapes run" true raised

let test_engine_names () =
  let eng = Sim.Engine.create ~seed:0 () in
  let a = Sim.Engine.spawn eng ~name:"alpha" (fun () -> ()) in
  let b = Sim.Engine.spawn eng (fun () -> ()) in
  check_string "explicit name" "alpha" (Sim.Engine.name_of eng a);
  check_string "default name" "fiber-1" (Sim.Engine.name_of eng b);
  Sim.Engine.run eng;
  check_int "fiber count" 2 (Sim.Engine.fiber_count eng)

let test_engine_deterministic_interleaving () =
  (* The same program with the same seed produces the same event order. *)
  let run_once () =
    let eng = Sim.Engine.create ~seed:99 () in
    let trace = Sim.Trace.create ~capture:true () in
    for i = 0 to 3 do
      ignore
        (Sim.Engine.spawn eng (fun () ->
             let p = Sim.Prng.split (Sim.Engine.prng eng) in
             for step = 1 to 5 do
               Sim.Engine.advance eng (Sim.Prng.int p ~bound:20 + 1);
               Sim.Trace.record trace ~time:(Sim.Engine.now eng) ~tid:i
                 ~label:(Printf.sprintf "step%d" step)
             done))
    done;
    Sim.Engine.run eng;
    Sim.Trace.events trace
  in
  check_bool "identical timed traces" true (run_once () = run_once ())

let test_engine_zero_advance_yields () =
  (* advance 0 must not hang and must let a same-instant event run. *)
  let eng = Sim.Engine.create ~seed:0 () in
  let order = ref [] in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         order := "a1" :: !order;
         Sim.Engine.advance eng 0;
         order := "a2" :: !order));
  ignore (Sim.Engine.spawn eng (fun () -> order := "b" :: !order));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "yield interleaves" [ "a1"; "b"; "a2" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Fnv / Trace                                                        *)
(* ------------------------------------------------------------------ *)

let test_fnv_known_values () =
  (* FNV-1a 64 of the empty string is the offset basis. *)
  check_string "empty" "cbf29ce484222325" (Sim.Fnv.to_hex Sim.Fnv.init);
  (* Standard test vector: FNV-1a 64 of "a" = af63dc4c8601ec8c. *)
  check_string "a" "af63dc4c8601ec8c" (Sim.Fnv.to_hex (Sim.Fnv.string Sim.Fnv.init "a"))

let test_fnv_int_order_sensitive () =
  let h1 = Sim.Fnv.int (Sim.Fnv.int Sim.Fnv.init 1) 2 in
  let h2 = Sim.Fnv.int (Sim.Fnv.int Sim.Fnv.init 2) 1 in
  check_bool "order matters" false (h1 = h2)

(* FNV-1a one byte at a time: the reference for [Fnv.bytes]' zero-word fold. *)
let fnv_bytewise h buf =
  let acc = ref h in
  Bytes.iter (fun c -> acc := Sim.Fnv.byte !acc (Char.code c)) buf;
  !acc

let prop_fnv_zero_words_match_bytewise =
  (* Mostly-zero buffers of length 0-600: nonzero runs painted at
     arbitrary offsets leave zero words, zero runs that start and end
     off 8-byte boundaries, and partial trailing words. *)
  QCheck.Test.make ~name:"fnv bytes matches byte-at-a-time fold" ~count:500
    QCheck.(
      triple (int_range 0 600)
        (small_list (triple (int_bound 600) (int_bound 24) (int_range 1 255)))
        int)
    (fun (len, runs, seed) ->
      let buf = Bytes.make len '\000' in
      List.iter
        (fun (pos, n, c) ->
          for i = pos to min len (pos + n) - 1 do
            Bytes.set buf i (Char.chr c)
          done)
        runs;
      let h = Sim.Fnv.int Sim.Fnv.init seed in
      Sim.Fnv.bytes h buf = fnv_bytewise h buf)

let test_fnv_zero_image () =
  (* A fresh segment's image hash is the fold of its all-zero bytes,
     including page sizes that are not a multiple of 8. *)
  List.iter
    (fun (pages, page_size) ->
      let seg = Vmem.Segment.create ~pages ~page_size () in
      check_string
        (Printf.sprintf "%d x %d zero image" pages page_size)
        (Sim.Fnv.to_hex (fnv_bytewise Sim.Fnv.init (Bytes.make (pages * page_size) '\000')))
        (Vmem.Segment.hash seg))
    [ (1, 1); (3, 12); (7, 100); (16, 4096) ]

let test_trace_hash_ignores_time () =
  let t1 = Sim.Trace.create ~capture:true () and t2 = Sim.Trace.create ~capture:true () in
  Sim.Trace.record t1 ~time:10 ~tid:0 ~label:"x";
  Sim.Trace.record t2 ~time:99 ~tid:0 ~label:"x";
  check_string "untimed hash equal" (Sim.Trace.hash t1) (Sim.Trace.hash t2);
  check_bool "captured times differ" false (Sim.Trace.events t1 = Sim.Trace.events t2)

let test_trace_capture_off () =
  let t = Sim.Trace.create ~capture:false () in
  Sim.Trace.record t ~time:1 ~tid:0 ~label:"x";
  check_int "counted" 1 (Sim.Trace.length t);
  check_bool "not captured" true (Sim.Trace.events t = [])

let test_trace_events_recording_order () =
  let t = Sim.Trace.create ~capture:true () in
  let recorded = [ (5, 2, "c"); (1, 0, "a"); (9, 1, "b") ] in
  List.iter (fun (time, tid, label) -> Sim.Trace.record t ~time ~tid ~label) recorded;
  (* events must preserve recording order, NOT sort by timestamp. *)
  let got =
    List.map
      (fun (e : Sim.Trace.event) -> (e.Sim.Trace.time, e.Sim.Trace.tid, e.Sim.Trace.label))
      (Sim.Trace.events t)
  in
  Alcotest.(check (list (triple int int string))) "recording order" recorded got

(* An event is a plain label, or (when the flag is set) a prefix plus an
   int argument, which [record_int] hashes without building the label. *)
let trace_event_gen =
  QCheck.(
    pair (pair small_nat (int_range 0 40)) (triple bool (string_of_size (Gen.int_range 0 12)) int))

let record_event t ((time, tid), (with_int, str, n)) =
  if with_int then Sim.Trace.record_int t ~time ~tid ~prefix:str n
  else Sim.Trace.record t ~time ~tid ~label:str

let label_of (_, (with_int, str, n)) = if with_int then str ^ string_of_int n else str

let prop_trace_capture_is_hash_neutral =
  QCheck.Test.make ~name:"trace hash and length do not depend on capture" ~count:300
    (QCheck.small_list trace_event_gen)
    (fun evs ->
      let on = Sim.Trace.create ~capture:true () and off = Sim.Trace.create () in
      List.iter (fun e -> record_event on e; record_event off e) evs;
      Sim.Trace.hash on = Sim.Trace.hash off
      && Sim.Trace.length on = Sim.Trace.length off
      && Sim.Trace.length on = List.length evs
      && Sim.Trace.events off = [])

let prop_trace_record_int_is_label =
  QCheck.Test.make ~name:"record_int hashes and captures the built label" ~count:300
    (QCheck.small_list trace_event_gen)
    (fun evs ->
      let streamed = Sim.Trace.create ~capture:true () and built = Sim.Trace.create () in
      List.iter
        (fun (((time, tid), _) as e) ->
          record_event streamed e;
          Sim.Trace.record built ~time ~tid ~label:(label_of e))
        evs;
      Sim.Trace.hash streamed = Sim.Trace.hash built
      && List.map (fun (e : Sim.Trace.event) -> e.Sim.Trace.label) (Sim.Trace.events streamed)
         = List.map label_of evs)

let prop_fnv_stream_matches_pure =
  QCheck.Test.make ~name:"fnv stream folds match the pure ones" ~count:500
    QCheck.(small_list (triple int (string_of_size (Gen.int_range 0 20)) int))
    (fun items ->
      let s = Sim.Fnv.stream () in
      let pure =
        List.fold_left
          (fun h (a, str, n) ->
            Sim.Fnv.add_int s a;
            Sim.Fnv.add_string s str;
            Sim.Fnv.add_decimal s n;
            Sim.Fnv.string (Sim.Fnv.string (Sim.Fnv.int h a) str) (string_of_int n))
          Sim.Fnv.init items
      in
      Sim.Fnv.value s = pure)

let test_fnv_decimal_extremes () =
  List.iter
    (fun n ->
      let s = Sim.Fnv.stream () in
      Sim.Fnv.add_decimal s n;
      check_string (string_of_int n)
        (Sim.Fnv.to_hex (Sim.Fnv.string Sim.Fnv.init (string_of_int n)))
        (Sim.Fnv.to_hex (Sim.Fnv.value s)))
    [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; min_int + 1 ]

(* A run records every sync op and output line; with capture off that
   must cost no allocation at all. *)
let test_trace_record_allocates_nothing () =
  let t = Sim.Trace.create () in
  let labels = [| "lock:0"; "unlock:0"; "barrier:3"; "exit" |] in
  let words =
    minor_words (fun () ->
        for i = 0 to 9_999 do
          Sim.Trace.record t ~time:i ~tid:(i land 7) ~label:(Array.unsafe_get labels (i land 3));
          Sim.Trace.record_int t ~time:i ~tid:(i land 7) ~prefix:"commit:" i
        done)
  in
  check_int "minor words over 10k records" 0 words;
  check_int "counted" 20_000 (Sim.Trace.length t)

let test_trace_order_sensitivity () =
  let t1 = Sim.Trace.create () and t2 = Sim.Trace.create () in
  Sim.Trace.record t1 ~time:0 ~tid:0 ~label:"a";
  Sim.Trace.record t1 ~time:0 ~tid:1 ~label:"b";
  Sim.Trace.record t2 ~time:0 ~tid:1 ~label:"b";
  Sim.Trace.record t2 ~time:0 ~tid:0 ~label:"a";
  check_bool "different order, different hash" false (Sim.Trace.hash t1 = Sim.Trace.hash t2)

let () =
  Alcotest.run "sim"
    [
      ( "prng",
        [
          Alcotest.test_case "same seed same stream" `Quick test_prng_same_seed_same_stream;
          Alcotest.test_case "different seeds differ" `Quick test_prng_different_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "jitter bounds" `Quick test_prng_jitter_bounds;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy preserves state" `Quick test_prng_copy_preserves_state;
          Alcotest.test_case "exponential positive" `Quick test_prng_exponential_positive;
          Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "golden streams, seeds 1 and 7" `Quick test_prng_golden_streams;
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_draws_allocate_nothing;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "orders by key" `Quick test_heap_orders_by_key;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "interleaved ties" `Quick test_heap_interleaved_ties;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "to_list nondestructive" `Quick test_heap_to_list_nondestructive;
          QCheck_alcotest.to_alcotest prop_heap_pop_sorted;
          QCheck_alcotest.to_alcotest prop_heap_stable_ties;
        ] );
      ( "engine",
        [
          Alcotest.test_case "advance accumulates" `Quick test_engine_advance_accumulates;
          Alcotest.test_case "parallel overlap" `Quick test_engine_parallel_threads_overlap;
          Alcotest.test_case "self ids" `Quick test_engine_self_ids;
          Alcotest.test_case "block/wakeup" `Quick test_engine_block_wakeup;
          Alcotest.test_case "pending wakeup permit" `Quick test_engine_pending_wakeup_permit;
          Alcotest.test_case "deadlock detection" `Quick test_engine_deadlock_detection;
          Alcotest.test_case "spawn from fiber" `Quick test_engine_spawn_from_fiber;
          Alcotest.test_case "exit fiber" `Quick test_engine_exit_fiber;
          Alcotest.test_case "wakeup finished noop" `Quick test_engine_wakeup_finished_noop;
          Alcotest.test_case "blocked reason" `Quick test_engine_blocked_reason;
          Alcotest.test_case "stuck budget" `Quick test_engine_stuck_budget;
          Alcotest.test_case "exception propagates" `Quick test_engine_exception_propagates;
          Alcotest.test_case "names" `Quick test_engine_names;
          Alcotest.test_case "deterministic interleaving" `Quick test_engine_deterministic_interleaving;
          Alcotest.test_case "zero advance yields" `Quick test_engine_zero_advance_yields;
        ] );
      ( "fnv-trace",
        [
          Alcotest.test_case "fnv known values" `Quick test_fnv_known_values;
          Alcotest.test_case "fnv int order sensitive" `Quick test_fnv_int_order_sensitive;
          QCheck_alcotest.to_alcotest prop_fnv_zero_words_match_bytewise;
          Alcotest.test_case "fnv zero segment image" `Quick test_fnv_zero_image;
          Alcotest.test_case "trace hash ignores time" `Quick test_trace_hash_ignores_time;
          Alcotest.test_case "trace capture off" `Quick test_trace_capture_off;
          Alcotest.test_case "trace events recording order" `Quick
            test_trace_events_recording_order;
          Alcotest.test_case "trace order sensitivity" `Quick test_trace_order_sensitivity;
          QCheck_alcotest.to_alcotest prop_trace_capture_is_hash_neutral;
          QCheck_alcotest.to_alcotest prop_trace_record_int_is_label;
          QCheck_alcotest.to_alcotest prop_fnv_stream_matches_pure;
          Alcotest.test_case "fnv decimal extremes" `Quick test_fnv_decimal_extremes;
          Alcotest.test_case "trace record allocates nothing" `Quick
            test_trace_record_allocates_nothing;
        ] );
    ]

(* Tests for the observability library: JSON printer/parser, metrics
   registry, recording tracer, and the Chrome trace-event exporter
   (schema-checked against a real runtime trace). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let sample_doc =
  Obs.Json.(
    Obj
      [
        ("null", Null);
        ("true", Bool true);
        ("false", Bool false);
        ("int", Int 42);
        ("neg", Int (-17));
        ("float", Float 1.5);
        ("string", String "hello");
        ("list", List [ Int 1; Int 2; Int 3 ]);
        ("nested", Obj [ ("inner", List [ Obj [ ("k", String "v") ] ]) ]);
        ("empty_list", List []);
        ("empty_obj", Obj []);
      ])

let test_json_roundtrip () =
  match Obs.Json.parse (Obs.Json.to_string sample_doc) with
  | Ok parsed -> check_bool "roundtrip equal" true (parsed = sample_doc)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_string_escaping () =
  let nasty = "quote\" backslash\\ newline\n tab\t cr\r nul\x00 ctl\x1f utf8 \xc3\xa9" in
  let doc = Obs.Json.String nasty in
  let s = Obs.Json.to_string doc in
  (* The rendering must not contain raw control characters. *)
  String.iter (fun c -> check_bool "no raw control chars" true (Char.code c >= 0x20)) s;
  match Obs.Json.parse s with
  | Ok (Obs.Json.String back) -> check_string "escaped string survives" nasty back
  | Ok _ -> Alcotest.fail "parsed to non-string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_unicode_escape_parsing () =
  (* é is é; the parser must decode it to UTF-8. *)
  match Obs.Json.parse {|"café"|} with
  | Ok (Obs.Json.String s) -> check_string "utf8 decoded" "caf\xc3\xa9" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape did not parse"

let test_json_non_finite_floats () =
  check_string "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check_string "inf is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.infinity));
  check_string "float keeps point" "2.0" (Obs.Json.to_string (Obs.Json.Float 2.0))

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "[1] trailing"; "01" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  let doc = sample_doc in
  check_bool "member hit" true (Obs.Json.member "int" doc = Some (Obs.Json.Int 42));
  check_bool "member miss" true (Obs.Json.member "absent" doc = None);
  check_bool "int accessor" true
    (Option.bind (Obs.Json.member "int" doc) Obs.Json.to_int_opt = Some 42);
  check_bool "float coercion" true
    (Option.bind (Obs.Json.member "int" doc) Obs.Json.to_float_opt = Some 42.0);
  check_bool "string accessor" true
    (Option.bind (Obs.Json.member "string" doc) Obs.Json.to_string_opt = Some "hello");
  check_bool "list accessor" true
    (match Option.bind (Obs.Json.member "list" doc) Obs.Json.to_list_opt with
    | Some l -> List.length l = 3
    | None -> false)

let prop_json_int_roundtrip =
  QCheck.Test.make ~name:"json roundtrips arbitrary int lists" ~count:200
    QCheck.(list int)
    (fun ints ->
      let doc = Obs.Json.List (List.map (fun i -> Obs.Json.Int i) ints) in
      Obs.Json.parse (Obs.Json.to_string doc) = Ok doc)

let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"json roundtrips arbitrary strings" ~count:200
    QCheck.printable_string
    (fun s ->
      Obs.Json.parse (Obs.Json.to_string (Obs.Json.String s)) = Ok (Obs.Json.String s))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "b";
  Obs.Metrics.incr m "a" ~by:3;
  Obs.Metrics.incr m "b";
  let s = Obs.Metrics.snapshot m in
  check_bool "sorted by name" true (s.Obs.Metrics.counters = [ ("a", 3); ("b", 2) ]);
  check_int "counter_value" 3 (Obs.Metrics.counter_value s "a");
  check_int "absent counter is 0" 0 (Obs.Metrics.counter_value s "zzz")

let test_metrics_observe_negative_raises () =
  let m = Obs.Metrics.create () in
  let raised =
    try
      Obs.Metrics.observe m "h" (-1);
      false
    with Invalid_argument _ -> true
  in
  check_bool "negative raises" true raised

let test_metrics_single_value_percentiles () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m "h" 1000;
  let s = Obs.Metrics.snapshot m in
  match Obs.Metrics.find_hist s "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      check_int "count" 1 h.Obs.Metrics.count;
      check_int "sum" 1000 h.Obs.Metrics.sum;
      check_int "min" 1000 h.Obs.Metrics.min_v;
      check_int "max" 1000 h.Obs.Metrics.max_v;
      List.iter
        (fun q ->
          Alcotest.(check (float 0.001))
            (Printf.sprintf "p%g" (q *. 100.))
            1000.0 (Obs.Metrics.percentile h q))
        [ 0.0; 0.5; 0.99; 1.0 ]

let test_metrics_percentile_bounds () =
  let m = Obs.Metrics.create () in
  for v = 1 to 1000 do
    Obs.Metrics.observe m "h" v
  done;
  let s = Obs.Metrics.snapshot m in
  match Obs.Metrics.find_hist s "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      check_int "count" 1000 h.Obs.Metrics.count;
      check_int "min exact" 1 h.Obs.Metrics.min_v;
      check_int "max exact" 1000 h.Obs.Metrics.max_v;
      Alcotest.(check (float 0.001)) "mean" 500.5 (Obs.Metrics.mean h);
      (* Power-of-two buckets: estimates are within a factor of 2 of the
         true quantile, and clamped to [min, max]. *)
      List.iter
        (fun q ->
          let est = Obs.Metrics.percentile h q in
          let true_q = q *. 1000.0 in
          check_bool
            (Printf.sprintf "p%g in range (est %.1f true %.1f)" (q *. 100.) est true_q)
            true
            (est >= Float.max 1.0 (true_q /. 2.0) && est <= Float.min 1000.0 (true_q *. 2.0)))
        [ 0.5; 0.9; 0.95; 0.99 ]

let test_metrics_empty_percentile_nan () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m "h" 5;
  let s = Obs.Metrics.snapshot m in
  let h = Option.get (Obs.Metrics.find_hist s "h") in
  let fake = { h with Obs.Metrics.count = 0; buckets = [] } in
  check_bool "empty is nan" true (Float.is_nan (Obs.Metrics.percentile fake 0.5))

let test_metrics_zero_values () =
  let m = Obs.Metrics.create () in
  for _ = 1 to 10 do
    Obs.Metrics.observe m "h" 0
  done;
  let s = Obs.Metrics.snapshot m in
  let h = Option.get (Obs.Metrics.find_hist s "h") in
  Alcotest.(check (float 0.001)) "all-zero p99" 0.0 (Obs.Metrics.percentile h 0.99)

let test_metrics_to_json_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "ops";
  Obs.Metrics.observe m "lat" 100;
  Obs.Metrics.observe m "lat" 200;
  let j = Obs.Metrics.to_json (Obs.Metrics.snapshot m) in
  (match Option.bind (Obs.Json.member "counters" j) (Obs.Json.member "ops") with
  | Some (Obs.Json.Int 1) -> ()
  | _ -> Alcotest.fail "counters.ops missing");
  match Option.bind (Obs.Json.member "histograms" j) Obs.Json.to_list_opt with
  | Some [ h ] ->
      check_bool "hist name" true
        (Option.bind (Obs.Json.member "name" h) Obs.Json.to_string_opt = Some "lat");
      check_bool "hist count" true
        (Option.bind (Obs.Json.member "count" h) Obs.Json.to_int_opt = Some 2);
      check_bool "p50 present" true (Obs.Json.member "p50" h <> None)
  | _ -> Alcotest.fail "histograms list wrong"

let prop_metrics_percentile_within_bucket =
  QCheck.Test.make ~name:"percentile stays within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 1_000_000))
    (fun values ->
      let m = Obs.Metrics.create () in
      List.iter (fun v -> Obs.Metrics.observe m "h" v) values;
      let h = Option.get (Obs.Metrics.find_hist (Obs.Metrics.snapshot m) "h") in
      List.for_all
        (fun q ->
          let est = Obs.Metrics.percentile h q in
          est >= float_of_int h.Obs.Metrics.min_v -. 0.001
          && est <= float_of_int h.Obs.Metrics.max_v +. 0.001)
        [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

(* The bucket search before it took a fixed number of steps: double a
   bound until it reaches [v], at most 62 times. *)
let reference_bucket v =
  let i = ref 0 and bound = ref 1 in
  while v > !bound && !i < 62 do
    incr i;
    bound := !bound * 2
  done;
  !i

(* Bucket [i]'s reported upper bound, as [Metrics.snapshot] gives it. *)
let bucket_upper i = if i >= 62 then max_int else 1 lsl i

let bucket_edges =
  [ 0; 1; 2; 3; max_int; max_int - 1 ]
  @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]) (List.init 62 Fun.id)
  |> List.filter (fun v -> v >= 0)

let prop_bucket_matches_loop =
  QCheck.Test.make ~name:"histogram bucket matches the doubling loop" ~count:1000
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof [ map (fun x -> x land max_int) int; small_nat; oneofl bucket_edges ]))
    (fun v ->
      let m = Obs.Metrics.create () in
      Obs.Metrics.observe m "h" v;
      match Obs.Metrics.find_hist (Obs.Metrics.snapshot m) "h" with
      | Some { Obs.Metrics.buckets = [ (upper, 1) ]; _ } -> upper = bucket_upper (reference_bucket v)
      | _ -> false)

let test_bucket_edges () =
  List.iter
    (fun v ->
      let m = Obs.Metrics.create () in
      Obs.Metrics.observe m "h" v;
      let h = Option.get (Obs.Metrics.find_hist (Obs.Metrics.snapshot m) "h") in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "bucket of %d" v)
        [ (bucket_upper (reference_bucket v), 1) ]
        h.Obs.Metrics.buckets)
    bucket_edges

(* ------------------------------------------------------------------ *)
(* Tracer / sink                                                      *)
(* ------------------------------------------------------------------ *)

let mk_span ?(name = "s") ?(cat = Obs.Span.Chunk) ?(tid = 0) ~t0 ~t1 () =
  { Obs.Span.name; cat; tid; t0; t1; args = [] }

let mk_instant ?(iname = "i") ?(itid = 0) ~itime () =
  { Obs.Span.iname; icat = Obs.Span.Sync; itid; itime }

let mk_state ?(stid = 0) ?(state = Obs.Thread_state.Run) ?(chunk = 0) ?(waker = -1) ~t0 ~t1
    () =
  { Obs.Thread_state.stid; state; t0; t1; chunk; waker }

let test_tracer_arrival_order () =
  let tr = Obs.Tracer.create () in
  let sink = Obs.Tracer.sink tr in
  (* Emit out of timestamp order: arrival order must be preserved. *)
  sink.Obs.Sink.span (mk_span ~name:"late" ~t0:100 ~t1:200 ());
  sink.Obs.Sink.span (mk_span ~name:"early" ~t0:0 ~t1:10 ());
  sink.Obs.Sink.instant (mk_instant ~iname:"m" ~itime:5 ());
  check_int "span count" 2 (Obs.Tracer.span_count tr);
  check_int "instant count" 1 (Obs.Tracer.instant_count tr);
  Alcotest.(check (list string))
    "arrival order" [ "late"; "early" ]
    (List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) (Obs.Tracer.spans tr))

let test_tracer_tids_sorted_distinct () =
  let tr = Obs.Tracer.create () in
  let sink = Obs.Tracer.sink tr in
  List.iter (fun tid -> sink.Obs.Sink.span (mk_span ~tid ~t0:0 ~t1:1 ())) [ 3; 1; 3; 0 ];
  sink.Obs.Sink.instant (mk_instant ~itid:7 ~itime:0 ());
  Alcotest.(check (list int)) "tids" [ 0; 1; 3; 7 ] (Obs.Tracer.tids tr)

let test_sink_null_and_tee () =
  check_bool "null is null" true (Obs.Sink.is_null Obs.Sink.null);
  let a = Obs.Tracer.create () and b = Obs.Tracer.create () in
  let tee = Obs.Sink.tee (Obs.Tracer.sink a) (Obs.Tracer.sink b) in
  check_bool "tee is not null" false (Obs.Sink.is_null tee);
  check_bool "tracer sink is not null" false (Obs.Sink.is_null (Obs.Tracer.sink a));
  tee.Obs.Sink.span (mk_span ~t0:0 ~t1:5 ());
  tee.Obs.Sink.instant (mk_instant ~itime:1 ());
  tee.Obs.Sink.state (mk_state ~t0:0 ~t1:5 ());
  check_int "tee -> a spans" 1 (Obs.Tracer.span_count a);
  check_int "tee -> b spans" 1 (Obs.Tracer.span_count b);
  check_int "tee -> a instants" 1 (Obs.Tracer.instant_count a);
  check_int "tee -> b instants" 1 (Obs.Tracer.instant_count b);
  check_int "tee -> a states" 1 (Obs.Tracer.state_count a);
  check_int "tee -> b states" 1 (Obs.Tracer.state_count b)

let test_tracer_state_channel () =
  let tr = Obs.Tracer.create () in
  let sink = Obs.Tracer.sink tr in
  sink.Obs.Sink.state (mk_state ~stid:3 ~state:Obs.Thread_state.Token_wait ~t0:0 ~t1:10 ());
  sink.Obs.Sink.state (mk_state ~stid:1 ~state:Obs.Thread_state.Commit ~t0:10 ~t1:15 ());
  check_int "state count" 2 (Obs.Tracer.state_count tr);
  Alcotest.(check (list int))
    "state tids merged into tids" [ 1; 3 ] (Obs.Tracer.tids tr);
  (match Obs.Tracer.states tr with
  | [ s1; s2 ] ->
      check_int "arrival order first" 3 s1.Obs.Thread_state.stid;
      check_int "arrival order second" 1 s2.Obs.Thread_state.stid
  | l -> Alcotest.failf "expected 2 states, got %d" (List.length l))

(* [index] is the constructor's position: it must agree with [all]
   and [of_index]. *)
let test_state_index () =
  check_int "n" 14 Obs.Thread_state.n;
  List.iteri
    (fun i st ->
      check_int (Obs.Thread_state.name st) i (Obs.Thread_state.index st);
      check_bool "of_index" true (Obs.Thread_state.of_index i = st))
    Obs.Thread_state.all

let test_counter_events () =
  (* Two states on one thread over [0,100): the counter track must
     bucket the occupancy and conserve total ns across buckets. *)
  let states =
    [
      mk_state ~stid:0 ~state:Obs.Thread_state.Run ~t0:0 ~t1:60 ();
      mk_state ~stid:0 ~state:Obs.Thread_state.Commit ~t0:60 ~t1:100 ();
    ]
  in
  let evs = Obs.Chrome_trace.counter_events ~buckets:4 states in
  check_bool "has counter events" true (evs <> []);
  let total = ref 0 in
  List.iter
    (fun ev ->
      (match Option.bind (Obs.Json.member "ph" ev) Obs.Json.to_string_opt with
      | Some "C" -> ()
      | _ -> Alcotest.fail "counter event must have ph=C");
      match Option.bind (Obs.Json.member "args" ev) (fun a ->
          match a with Obs.Json.Obj kvs -> Some kvs | _ -> None)
      with
      | Some kvs ->
          List.iter
            (fun (_, v) ->
              match Obs.Json.to_int_opt v with
              | Some ns -> total := !total + ns
              | None -> Alcotest.fail "counter args must be ints")
            kvs
      | None -> Alcotest.fail "counter event without args")
    evs;
  check_int "occupancy conserved across buckets" 100 !total

let test_span_duration () =
  check_int "duration" 42 (Obs.Span.duration (mk_span ~t0:8 ~t1:50 ()))

(* ------------------------------------------------------------------ *)
(* Chrome trace schema                                                *)
(* ------------------------------------------------------------------ *)

(* Structural validity per the trace-event format: every event has name /
   ph / pid; "X" events have numeric ts/dur >= 0 and a tid; "i" events
   have thread scope; every tid referenced by an event has a thread_name
   metadata record. *)
(* ------------------------------------------------------------------ *)
(* Interval log                                                       *)
(* ------------------------------------------------------------------ *)

module Log = Obs.Interval_log

(* Any int, the extremes, and the small values a runtime emits. *)
let any_int =
  QCheck.Gen.(
    frequency
      [
        (3, small_signed_int);
        (2, int);
        (1, oneofl [ 0; -1; 1; min_int; max_int; min_int + 1; max_int - 1 ]);
      ])

(* Streams that continue a thread's time and chunk (the deltas are
   then 0) as often as they jump anywhere. *)
let interval_stream =
  let open QCheck.Gen in
  let step =
    pair
      (pair (frequency [ (4, int_bound 8); (1, int_bound 300); (1, any_int) ]) (int_bound 13))
      (pair (pair any_int (pair bool bool)) (pair any_int (pair any_int any_int)))
  in
  map
    (fun steps ->
      let last = Hashtbl.create 8 in
      List.map
        (fun ((tid, si), ((dur, (keep_t0, keep_chunk)), (t0, (chunk, waker)))) ->
          let pt1, pck = Option.value (Hashtbl.find_opt last tid) ~default:(0, 0) in
          let t0 = if keep_t0 then pt1 else t0 in
          let chunk = if keep_chunk then pck else chunk in
          let iv =
            mk_state ~stid:tid ~state:(Obs.Thread_state.of_index si) ~chunk ~waker ~t0
              ~t1:(t0 + dur) ()
          in
          Hashtbl.replace last tid (iv.Obs.Thread_state.t1, chunk);
          iv)
        steps)
    (list_size (int_bound 2000) step)

let print_interval (iv : Obs.Thread_state.interval) =
  Printf.sprintf "{t%d %s [%d,%d) ck=%d w=%d}" iv.Obs.Thread_state.stid
    (Obs.Thread_state.name iv.Obs.Thread_state.state)
    iv.Obs.Thread_state.t0 iv.Obs.Thread_state.t1 iv.Obs.Thread_state.chunk
    iv.Obs.Thread_state.waker

let prop_log_roundtrip =
  QCheck.Test.make ~name:"interval log round-trips any stream" ~count:300 ~long_factor:20
    (QCheck.make ~print:QCheck.Print.(list print_interval) ~shrink:QCheck.Shrink.list
       interval_stream)
    (fun ivs ->
      let log = Log.create () in
      List.iter (Log.push log) ivs;
      let v = Log.view log in
      Log.length log = List.length ivs && Log.count v = List.length ivs && Log.to_list v = ivs)

(* A view keeps what the log held when it was taken, through later
   pushes. *)
let test_log_views_frozen () =
  let log = Log.create () in
  let ivs n base =
    List.init n (fun i ->
        mk_state ~stid:(i mod 5) ~chunk:(i / 7) ~t0:(base + (10 * i)) ~t1:(base + (10 * i) + 10) ())
  in
  let first = ivs 1500 0 in
  List.iter (Log.push log) first;
  let v1 = Log.view log in
  let twin = Log.create () in
  List.iter (Log.push twin) first;
  check_bool "views of equal streams are equal" true (Log.view twin = v1);
  List.iter (Log.push log) (ivs 700 100_000);
  check_bool "spans chunks" true (Log.byte_size log > 2 * Log.chunk_bytes);
  check_bool "view unchanged by pushes" true (Log.to_list v1 = first);
  check_bool "still equal to its twin" true (Log.view twin = v1);
  check_bool "empty view" true (Log.to_list Log.empty = [])

let check_chrome_schema json =
  let get name j = Obs.Json.member name j in
  let events =
    match Option.bind (get "traceEvents" json) Obs.Json.to_list_opt with
    | Some evs -> evs
    | None -> Alcotest.fail "traceEvents missing or not a list"
  in
  check_bool "has events" true (events <> []);
  let named_tids = Hashtbl.create 16 in
  let used_tids = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let ph =
        match Option.bind (get "ph" ev) Obs.Json.to_string_opt with
        | Some ph -> ph
        | None -> Alcotest.fail "event without ph"
      in
      check_bool "event has name" true (Option.bind (get "name" ev) Obs.Json.to_string_opt <> None);
      check_bool "event has pid" true (Option.bind (get "pid" ev) Obs.Json.to_int_opt <> None);
      match ph with
      | "M" -> (
          match
            ( Option.bind (get "name" ev) Obs.Json.to_string_opt,
              Option.bind (get "tid" ev) Obs.Json.to_int_opt )
          with
          | Some "thread_name", Some tid -> Hashtbl.replace named_tids tid ()
          | _ -> ())
      | "X" ->
          let ts = Option.bind (get "ts" ev) Obs.Json.to_float_opt in
          let dur = Option.bind (get "dur" ev) Obs.Json.to_float_opt in
          let tid = Option.bind (get "tid" ev) Obs.Json.to_int_opt in
          check_bool "X has ts >= 0" true (match ts with Some t -> t >= 0.0 | None -> false);
          check_bool "X has dur >= 0" true (match dur with Some d -> d >= 0.0 | None -> false);
          check_bool "X has cat" true (Option.bind (get "cat" ev) Obs.Json.to_string_opt <> None);
          (match tid with
          | Some t -> Hashtbl.replace used_tids t ()
          | None -> Alcotest.fail "X event without tid");
          ()
      | "i" ->
          check_bool "i has thread scope" true
            (Option.bind (get "s" ev) Obs.Json.to_string_opt = Some "t");
          (match Option.bind (get "tid" ev) Obs.Json.to_int_opt with
          | Some t -> Hashtbl.replace used_tids t ()
          | None -> Alcotest.fail "i event without tid");
          ()
      | "C" ->
          (* counter tracks (thread-state occupancy per window) *)
          let ts = Option.bind (get "ts" ev) Obs.Json.to_float_opt in
          check_bool "C has ts >= 0" true (match ts with Some t -> t >= 0.0 | None -> false);
          (match get "args" ev with
          | Some (Obs.Json.Obj kvs) ->
              List.iter
                (fun (_, v) ->
                  check_bool "C arg is a non-negative int" true
                    (match Obs.Json.to_int_opt v with Some n -> n >= 0 | None -> false))
                kvs
          | _ -> Alcotest.fail "C event without args object")
      | other -> Alcotest.failf "unexpected ph %S" other)
    events;
  Hashtbl.iter
    (fun tid () ->
      check_bool (Printf.sprintf "tid %d has thread_name track" tid) true
        (Hashtbl.mem named_tids tid))
    used_tids

let test_chrome_trace_schema_synthetic () =
  let tr = Obs.Tracer.create () in
  let sink = Obs.Tracer.sink tr in
  sink.Obs.Sink.span
    { Obs.Span.name = "work"; cat = Obs.Span.Chunk; tid = 2; t0 = 10; t1 = 35;
      args = [ ("instr", 25) ] };
  sink.Obs.Sink.instant (mk_instant ~iname:"acq" ~itid:1 ~itime:12 ());
  let json = Obs.Chrome_trace.of_tracer ~process_name:"test" tr in
  (* The exporter's output must survive its own parser. *)
  (match Obs.Json.parse (Obs.Json.to_string json) with
  | Ok reparsed -> check_bool "reparses identically" true (reparsed = json)
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e);
  check_chrome_schema json

let test_chrome_trace_schema_real_run () =
  (* The acceptance path: trace the histogram benchmark under
     consequence-ic and schema-check the document end to end. *)
  let program = (Workload.Registry.find "histogram").Workload.Registry.program in
  let tr = Obs.Tracer.create () in
  let r =
    Runtime.Det_rt.run Runtime.Config.consequence_ic ~seed:1 ~nthreads:4
      ~obs:(Obs.Tracer.sink tr) program
  in
  check_bool "produced spans" true (Obs.Tracer.span_count tr > 0);
  check_bool "produced instants" true (Obs.Tracer.instant_count tr > 0);
  (* One track per simulated core: main + 4 workers. *)
  check_int "tracks" 5 (List.length (Obs.Tracer.tids tr));
  let json = Obs.Chrome_trace.of_tracer tr in
  (match Obs.Json.parse (Obs.Json.to_string json) with
  | Ok reparsed -> check_bool "reparses identically" true (reparsed = json)
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e);
  check_chrome_schema json;
  (* Spans never extend past the end of the run. *)
  List.iter
    (fun (s : Obs.Span.t) ->
      check_bool "span within run" true
        (s.Obs.Span.t0 >= 0 && s.Obs.Span.t1 <= r.Stats.Run_result.wall_ns
        && s.Obs.Span.t0 <= s.Obs.Span.t1))
    (Obs.Tracer.spans tr)

let test_run_result_to_json_parses () =
  let program = (Workload.Registry.find "histogram").Workload.Registry.program in
  let r = Runtime.Det_rt.run Runtime.Config.consequence_ic ~seed:1 ~nthreads:4 program in
  let j = Stats.Run_result.to_json r in
  (match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok back -> check_bool "roundtrips" true (back = j)
  | Error e -> Alcotest.failf "run result JSON does not parse: %s" e);
  check_bool "witness present" true
    (Option.bind (Obs.Json.member "witness" j) Obs.Json.to_string_opt
    = Some (Stats.Run_result.deterministic_witness r));
  check_bool "wall_ns present" true
    (Option.bind (Obs.Json.member "wall_ns" j) Obs.Json.to_int_opt
    = Some r.Stats.Run_result.wall_ns);
  check_bool "metrics present" true (Obs.Json.member "metrics" j <> None)

(* ------------------------------------------------------------------ *)
(* Labels                                                             *)
(* ------------------------------------------------------------------ *)

module Ev = Runtime.Rt_event
module Core = Runtime.Rt_core

(* Random ints over the whole range, the digit-count edges, and the
   extremes [string_of_int] handles specially. *)
let label_int =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      oneof
        [
          int;
          small_signed_int;
          oneofl [ 0; 9; 10; 99; 100; -1; -9; -10; -100; max_int; min_int; min_int + 1 ];
        ])

(* Every label shape the runtimes emit, built the new way and through
   [Printf], on the same three ints. *)
let label_shapes a b c =
  let sync op = Core.label op a in
  let ev e = Ev.label e in
  [
    ("commit span", Obs.Label.int "commit:v" a, Printf.sprintf "commit:v%d" a);
    ("update span", Obs.Label.int2 "update:v" a "-v" b, Printf.sprintf "update:v%d-v%d" a b);
    ( "commit-phase1 span",
      Obs.Label.int "commit-phase1:v" a,
      Printf.sprintf "commit-phase1:v%d" a );
    ("spawn span", Obs.Label.int "spawn:" a, Printf.sprintf "spawn:%d" a);
    ("join span", Obs.Label.int "join:" a, Printf.sprintf "join:%d" a);
    ("commit", ev (Ev.Commit { tid = 0; version = a; pages = [] }), Printf.sprintf "commit:v%d" a);
    ( "conflict",
      ev
        (Ev.Conflict
           { tid = 0; version = 0; page = a; first_byte = b; last_byte = c; loser_tid = 0;
             loser_version = 0 }),
      Printf.sprintf "conflict:p%d+%d..%d" a b c );
    ( "overflow",
      ev (Ev.Boundary { tid = 0; ic = a; overflow = true }),
      Printf.sprintf "overflow:%d" a );
    ( "chunk-end",
      ev (Ev.Boundary { tid = 0; ic = a; overflow = false }),
      Printf.sprintf "chunk-end:%d" a );
    ("hash", ev (Ev.Commit_hash { tid = 0; version = a; hash = "" }), Printf.sprintf "hash:v%d" a);
    ( "txn-abort",
      ev (Ev.Txn_abort { tid = 0; seq = a; retries = b }),
      Printf.sprintf "txn-abort:%d.%d" a b );
    ( "tune",
      ev
        (Ev.Tune_decision
           { tid = 0; epoch = a; ic = b; chunk_base = 0; chunk_cap = 0; coarsen = 0;
             coarsen_floor = 0; coarsen_cap = 0 }),
      Printf.sprintf "tune:e%d@%d" a b );
    ("obj_mutex", Ev.obj_mutex a, Printf.sprintf "m:%d" a);
    ("obj_cond", Ev.obj_cond a, Printf.sprintf "c:%d" a);
    ("obj_barrier", Ev.obj_barrier a, Printf.sprintf "b:%d" a);
    ("obj_thread", Ev.obj_thread a, Printf.sprintf "t:%d" a);
    ("obj_thread_exit", Ev.obj_thread_exit a, Printf.sprintf "t:%d:exit" a);
    ( "rel",
      ev (Ev.Release { tid = 0; obj = Ev.obj_barrier a }),
      Printf.sprintf "rel:b:%d" a );
    ( "acq",
      ev (Ev.Acquire { tid = 0; obj = Ev.obj_thread_exit a }),
      Printf.sprintf "acq:t:%d:exit" a );
    ("lock", sync Core.Lock, Printf.sprintf "lock:%d" a);
    ("unlock", sync Core.Unlock, Printf.sprintf "unlock:%d" a);
    ("commit op", sync Core.Commit, Printf.sprintf "commit:%d" a);
    ("spawn op", sync Core.Spawn, Printf.sprintf "spawn:%d" a);
    ("join op", sync Core.Join, Printf.sprintf "join:%d" a);
    ("cond_wait op", sync Core.Cond_wait, Printf.sprintf "cond_wait:%d" a);
    ("barrier op", sync Core.Barrier, Printf.sprintf "barrier:%d" a);
    ("atomic op", sync Core.Atomic, Printf.sprintf "atomic:%d" a);
    ("signal op", sync Core.Signal, Printf.sprintf "signal:%d" a);
    ("broadcast op", sync Core.Broadcast, Printf.sprintf "broadcast:%d" a);
    ("exit op", sync Core.Exit, "exit");
    ("forced-commit op", sync Core.Forced_commit, "forced-commit");
    ("cond reason", Core.cond_reason a, Printf.sprintf "cond:%d" a);
    ("thread name", Core.thread_name a, Printf.sprintf "t%d" a);
  ]

let prop_labels_match_printf =
  QCheck.Test.make ~name:"labels equal their Printf construction" ~count:500
    QCheck.(triple label_int label_int label_int)
    (fun (a, b, c) ->
      List.for_all
        (fun (shape, got, want) ->
          String.equal got want
          || QCheck.Test.fail_reportf "%s: got %S, want %S" shape got want)
        (label_shapes a b c))

(* Ids 0-63 share one string; -1 and 64 get a fresh one with the same
   text as the plain construction. *)
let test_interned_names () =
  let rel_mutex i = Ev.label (Ev.Release { tid = 0; obj = Ev.obj_mutex i }) in
  let acq_thread i = Ev.label (Ev.Acquire { tid = 0; obj = Ev.obj_thread i }) in
  let named =
    [
      ("m", Ev.obj_mutex, Printf.sprintf "m:%d");
      ("c", Ev.obj_cond, Printf.sprintf "c:%d");
      ("b", Ev.obj_barrier, Printf.sprintf "b:%d");
      ("t", Ev.obj_thread, Printf.sprintf "t:%d");
      ("t:exit", Ev.obj_thread_exit, Printf.sprintf "t:%d:exit");
      ("rel", rel_mutex, Printf.sprintf "rel:m:%d");
      ("acq", acq_thread, Printf.sprintf "acq:t:%d");
      ("lock label", Core.label Core.Lock, Printf.sprintf "lock:%d");
      ("barrier label", Core.label Core.Barrier, Printf.sprintf "barrier:%d");
      ("join label", Core.label Core.Join, Printf.sprintf "join:%d");
      ("spawn label", Core.label Core.Spawn, Printf.sprintf "spawn:%d");
      ("cond reason", Core.cond_reason, Printf.sprintf "cond:%d");
      ("thread name", Core.thread_name, Printf.sprintf "t%d");
    ]
  in
  List.iter
    (fun (what, f, plain) ->
      List.iter
        (fun id ->
          let name = Printf.sprintf "%s %d" what id in
          check_string name (plain id) (f id);
          check_bool (name ^ " shared") (id >= 0 && id < 64) (f id == f id))
        [ -1; 0; 63; 64 ])
    named;
  (* An equal name built elsewhere (a schedule log) finds the shared
     label too; a near miss does not. *)
  check_bool "rel of a rebuilt name shared" true
    (Ev.label (Ev.Release { tid = 0; obj = String.concat "" [ "b:"; "7" ] })
    == Ev.label (Ev.Release { tid = 0; obj = Ev.obj_barrier 7 }));
  List.iter
    (fun obj -> check_string obj ("rel:" ^ obj) (Ev.label (Ev.Release { tid = 0; obj })))
    [ "m:07"; "m:7x"; "t:7:exi"; "t:7:exitx"; "q:7"; "m:"; "m7"; "" ]

let test_thread_of_obj () =
  List.iter
    (fun (obj, want) -> check_int obj want (Ev.thread_of_obj obj))
    [
      (Ev.obj_thread 0, 0); (Ev.obj_thread 63, 63); (Ev.obj_thread 64, 64);
      (Ev.obj_thread 123_456, 123_456); (Ev.obj_thread_exit 3, -1); (Ev.obj_mutex 3, -1);
      ("t:", -1); ("t:1x", -1); ("t:-1", -1); ("t:999999999999999999", 999_999_999_999_999_999);
      ("t:9999999999999999999", -1);
    ]

(* Minor-heap words [f ()] allocates, net of the measurement itself. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  int_of_float (w2 -. w1 -. (w1 -. w0))

(* Heap words of a string, header included. *)
let string_words s = Obj.size (Obj.repr s) + 1

let test_interned_labels_allocate_nothing () =
  let evs =
    Array.init 64 (fun i ->
        match i mod 4 with
        | 0 -> Ev.Release { tid = 1; obj = Ev.obj_mutex i }
        | 1 -> Ev.Acquire { tid = 1; obj = Ev.obj_barrier i }
        | 2 -> Ev.Release { tid = 1; obj = Ev.obj_thread i }
        | _ -> Ev.Acquire { tid = 1; obj = Ev.obj_thread_exit i })
  in
  let len = ref 0 in
  let rounds n =
    for i = 0 to n - 1 do
      let id = i land 63 in
      len :=
        !len
        + String.length (Ev.obj_mutex id)
        + String.length (Ev.obj_cond id)
        + String.length (Ev.obj_barrier id)
        + String.length (Ev.obj_thread id)
        + String.length (Ev.obj_thread_exit id)
        + String.length (Ev.label (Array.unsafe_get evs id))
        + String.length (Core.label Core.Lock id)
        + String.length (Core.label Core.Barrier id)
        + String.length (Core.label Core.Join id)
        + String.length (Core.label Core.Spawn id)
        + String.length (Core.cond_reason id)
        + String.length (Core.thread_name id)
    done
  in
  (* The first use of a small id builds its name once. *)
  rounds 64;
  let words = minor_words (fun () -> rounds 10_000) in
  check_int "minor words over 10k rounds of interned names" 0 words;
  check_bool "named something" true (!len > 0)

(* A fresh label costs its own string and nothing else. *)
let test_fresh_labels_allocate_their_string () =
  let versions = [| 0; 7; 12_345; 999_999_999; max_int; min_int |] in
  let hashes = [| 0L; -1L; Int64.min_int; 0x123456789abcdefL; 0xcbf29ce484222325L |] in
  let expect = ref 0 in
  Array.iter (fun v -> expect := !expect + string_words (Obs.Label.int "commit:v" v)) versions;
  Array.iter (fun h -> expect := !expect + string_words (Sim.Fnv.to_hex h)) hashes;
  let expect = 1000 * !expect in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          for i = 0 to Array.length versions - 1 do
            ignore (Sys.opaque_identity (Obs.Label.int "commit:v" (Array.unsafe_get versions i)))
          done;
          for i = 0 to Array.length hashes - 1 do
            ignore (Sys.opaque_identity (Sim.Fnv.to_hex (Array.unsafe_get hashes i)))
          done
        done)
  in
  check_int "minor words = the strings' own" expect words

(* ------------------------------------------------------------------ *)
(* Golden observed output                                             *)
(* ------------------------------------------------------------------ *)

(* FNV digests of what two traced and observed runs emit (8 threads,
   seed 1), taken while labels were still built with [Printf]: the
   Chrome-trace JSON, which holds every span name, instant label and
   wait reason, and the observer stream's [Rt_event.label] sequence,
   one label per line.  A byte changed in any label fails here. *)
let observed_golden =
  [
    (Runtime.Run.consequence_ic, "kmeans", "cc52426fbbaacac6", "4bc272c2eaa0515f");
    (Runtime.Run.pthreads, "water_nsquared", "f88df22f0ac32431", "d380ba6777180afc");
  ]

let test_observed_output_golden () =
  List.iter
    (fun (rt, name, trace_golden, labels_golden) ->
      let program = (Workload.Registry.find name).Workload.Registry.program in
      let tracer = Obs.Tracer.create () in
      let labels = Sim.Fnv.stream () in
      let observer ev =
        Sim.Fnv.add_string labels (Runtime.Rt_event.label ev);
        Sim.Fnv.add_string labels "\n"
      in
      ignore
        (Runtime.Run.run rt ~seed:1 ~nthreads:8 ~obs:(Obs.Tracer.sink tracer) ~observer program);
      let process_name =
        Printf.sprintf "%s / %s (8 threads, seed 1)" name (Runtime.Run.name rt)
      in
      let json = Obs.Json.to_string (Obs.Chrome_trace.of_tracer ~process_name tracer) in
      let what = Printf.sprintf "%s %s" (Runtime.Run.name rt) name in
      check_string (what ^ " trace") trace_golden
        (Sim.Fnv.to_hex (Sim.Fnv.string Sim.Fnv.init json));
      check_string (what ^ " labels") labels_golden (Sim.Fnv.to_hex (Sim.Fnv.value labels)))
    observed_golden

(* The traced kmeans run above, as the runtime emitted its state
   intervals: one line of all six fields per interval, in arrival
   order, digested.  Taken while the tracer kept a list of records. *)
let test_states_golden () =
  let program = (Workload.Registry.find "kmeans").Workload.Registry.program in
  let tracer = Obs.Tracer.create () in
  ignore
    (Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:8
       ~obs:(Obs.Tracer.sink tracer) ~observer:ignore program);
  let h = Sim.Fnv.stream () in
  let states = Obs.Tracer.states tracer in
  List.iter
    (fun (iv : Obs.Thread_state.interval) ->
      List.iter
        (fun v ->
          Sim.Fnv.add_decimal h v;
          Sim.Fnv.add_string h " ")
        [
          iv.Obs.Thread_state.stid;
          Obs.Thread_state.index iv.Obs.Thread_state.state;
          iv.Obs.Thread_state.t0;
          iv.Obs.Thread_state.t1;
          iv.Obs.Thread_state.chunk;
          iv.Obs.Thread_state.waker;
        ];
      Sim.Fnv.add_string h "\n")
    states;
  check_int "intervals" 3444 (List.length states);
  check_int "state_count" 3444 (Obs.Tracer.state_count tracer);
  check_string "decoded stream" "1866a6d33096c552" (Sim.Fnv.to_hex (Sim.Fnv.value h))

(* A traced commit builds its label once: the [Commit] instant carries
   the very string that names its span. *)
let test_commit_label_shared () =
  let program = (Workload.Registry.find "kmeans").Workload.Registry.program in
  let tracer = Obs.Tracer.create () in
  ignore
    (Runtime.Run.run Runtime.Run.consequence_ic ~seed:1 ~nthreads:8
       ~obs:(Obs.Tracer.sink tracer) program);
  let spans =
    List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.cat = Obs.Span.Commit) (Obs.Tracer.spans tracer)
  in
  let instants =
    List.filter
      (fun (i : Obs.Span.instant) -> String.starts_with ~prefix:"commit:v" i.Obs.Span.iname)
      (Obs.Tracer.instants tracer)
  in
  check_bool "commits traced" true (spans <> []);
  check_int "one instant per commit span" (List.length spans) (List.length instants);
  List.iter2
    (fun (s : Obs.Span.t) (i : Obs.Span.instant) ->
      if not (i.Obs.Span.iname == s.Obs.Span.name) then
        Alcotest.failf "instant %S is a copy of its span's label" i.Obs.Span.iname)
    spans instants

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "string escaping" `Quick test_json_string_escaping;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape_parsing;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite_floats;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest prop_json_int_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "negative observe raises" `Quick
            test_metrics_observe_negative_raises;
          Alcotest.test_case "single-value percentiles" `Quick
            test_metrics_single_value_percentiles;
          Alcotest.test_case "percentile bounds" `Quick test_metrics_percentile_bounds;
          Alcotest.test_case "empty percentile nan" `Quick test_metrics_empty_percentile_nan;
          Alcotest.test_case "zero values" `Quick test_metrics_zero_values;
          Alcotest.test_case "to_json shape" `Quick test_metrics_to_json_shape;
          QCheck_alcotest.to_alcotest prop_metrics_percentile_within_bucket;
          QCheck_alcotest.to_alcotest prop_bucket_matches_loop;
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "arrival order" `Quick test_tracer_arrival_order;
          Alcotest.test_case "tids sorted distinct" `Quick test_tracer_tids_sorted_distinct;
          Alcotest.test_case "null and tee" `Quick test_sink_null_and_tee;
          Alcotest.test_case "state channel" `Quick test_tracer_state_channel;
          Alcotest.test_case "state index" `Quick test_state_index;
          Alcotest.test_case "counter events" `Quick test_counter_events;
          Alcotest.test_case "span duration" `Quick test_span_duration;
        ] );
      ( "interval-log",
        [
          QCheck_alcotest.to_alcotest prop_log_roundtrip;
          Alcotest.test_case "views stay frozen" `Quick test_log_views_frozen;
        ] );
      ( "labels",
        [
          QCheck_alcotest.to_alcotest prop_labels_match_printf;
          Alcotest.test_case "interned names" `Quick test_interned_names;
          Alcotest.test_case "thread_of_obj" `Quick test_thread_of_obj;
          Alcotest.test_case "interned names allocate nothing" `Quick
            test_interned_labels_allocate_nothing;
          Alcotest.test_case "fresh labels allocate only themselves" `Quick
            test_fresh_labels_allocate_their_string;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "schema (synthetic)" `Quick test_chrome_trace_schema_synthetic;
          Alcotest.test_case "schema (real run)" `Quick test_chrome_trace_schema_real_run;
          Alcotest.test_case "run result json" `Quick test_run_result_to_json_parses;
          Alcotest.test_case "golden observed output" `Quick test_observed_output_golden;
          Alcotest.test_case "golden state stream" `Quick test_states_golden;
          Alcotest.test_case "commit label built once" `Quick test_commit_label_shared;
        ] );
    ]

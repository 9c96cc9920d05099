let pid = 1

let us_of_ns ns = float_of_int ns /. 1000.0

let span_event (s : Span.t) =
  let base =
    [
      ("name", Json.String s.Span.name);
      ("cat", Json.String (Span.category_name s.Span.cat));
      ("ph", Json.String "X");
      ("ts", Json.Float (us_of_ns s.Span.t0));
      ("dur", Json.Float (us_of_ns (Span.duration s)));
      ("pid", Json.Int pid);
      ("tid", Json.Int s.Span.tid);
    ]
  in
  let args = List.map (fun (k, v) -> (k, Json.Int v)) s.Span.args in
  Json.Obj (if args = [] then base else base @ [ ("args", Json.Obj args) ])

let instant_event (i : Span.instant) =
  Json.Obj
    [
      ("name", Json.String i.Span.iname);
      ("cat", Json.String (Span.category_name i.Span.icat));
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Float (us_of_ns i.Span.itime));
      ("pid", Json.Int pid);
      ("tid", Json.Int i.Span.itid);
    ]

let metadata_event ~name ~tid ~value =
  let base =
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]
  in
  Json.Obj (match tid with None -> base | Some t -> base @ [ ("tid", Json.Int t) ])

(* Perfetto counter tracks ("ph":"C"): per-thread state occupancy over
   time.  The interval stream is exact but dense; for a readable track
   the run is divided into [buckets] equal windows and each interval's
   duration is distributed over the windows it overlaps.  One counter
   event per (thread, window) carries the per-state occupancy in ns as
   its args, which Perfetto renders as a stacked counter track. *)
let counter_events ?(buckets = 240) states =
  match states with
  | [] -> []
  | _ ->
      let t_end =
        List.fold_left (fun m (iv : Thread_state.interval) -> max m iv.Thread_state.t1) 0 states
      in
      if t_end <= 0 then []
      else begin
        let buckets = max 1 buckets in
        let width = max 1 ((t_end + buckets - 1) / buckets) in
        let nstates = Thread_state.n in
        (* (tid, bucket) -> per-state ns *)
        let acc : (int * int, int array) Hashtbl.t = Hashtbl.create 1024 in
        let slot tid b =
          match Hashtbl.find_opt acc (tid, b) with
          | Some a -> a
          | None ->
              let a = Array.make nstates 0 in
              Hashtbl.replace acc (tid, b) a;
              a
        in
        List.iter
          (fun (iv : Thread_state.interval) ->
            let si = Thread_state.index iv.Thread_state.state in
            let b0 = iv.Thread_state.t0 / width and b1 = (iv.Thread_state.t1 - 1) / width in
            for b = b0 to b1 do
              let lo = max iv.Thread_state.t0 (b * width) in
              let hi = min iv.Thread_state.t1 ((b + 1) * width) in
              if hi > lo then begin
                let a = slot iv.Thread_state.stid b in
                a.(si) <- a.(si) + (hi - lo)
              end
            done)
          states;
        let keys = Hashtbl.fold (fun k _ ks -> k :: ks) acc [] |> List.sort compare in
        List.map
          (fun (tid, b) ->
            let a = Hashtbl.find acc (tid, b) in
            let args =
              List.filter_map
                (fun st ->
                  let v = a.(Thread_state.index st) in
                  if v = 0 then None else Some (Thread_state.name st, Json.Int v))
                Thread_state.all
            in
            Json.Obj
              [
                ("name", Json.String (Printf.sprintf "thread-state t%d (ns/window)" tid));
                ("ph", Json.String "C");
                ("ts", Json.Float (us_of_ns (b * width)));
                ("pid", Json.Int pid);
                ("tid", Json.Int tid);
                ("args", Json.Obj args);
              ])
          keys
      end

let document ?(process_name = "consequence") ~states ~spans ~instants () =
  let module S = Set.Make (Int) in
  let tids =
    let s = List.fold_left (fun acc (sp : Span.t) -> S.add sp.Span.tid acc) S.empty spans in
    let s = List.fold_left (fun acc (i : Span.instant) -> S.add i.Span.itid acc) s instants in
    let s =
      List.fold_left
        (fun acc (iv : Thread_state.interval) -> S.add iv.Thread_state.stid acc)
        s states
    in
    S.elements s
  in
  let counters = counter_events states in
  let meta =
    metadata_event ~name:"process_name" ~tid:None ~value:process_name
    :: List.map
         (fun tid ->
           metadata_event ~name:"thread_name" ~tid:(Some tid)
             ~value:(if tid = 0 then "core-0 (main)" else Printf.sprintf "core-%d" tid))
         tids
  in
  let events =
    meta @ List.map span_event spans @ List.map instant_event instants @ counters
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.String "simulated-ns");
            ("spans", Json.Int (List.length spans));
            ("instants", Json.Int (List.length instants));
            ("state_intervals", Json.Int (List.length states));
            ("counter_events", Json.Int (List.length counters));
          ] );
    ]

let of_events ?process_name ~spans ~instants () =
  document ?process_name ~states:[] ~spans ~instants ()

let of_tracer ?process_name tr =
  document ?process_name ~states:(Tracer.states tr) ~spans:(Tracer.spans tr)
    ~instants:(Tracer.instants tr) ()

let write_file ?process_name path tr =
  Json.to_file path (of_tracer ?process_name tr)

module Ev = Runtime.Rt_event

type meta = {
  program : string;
  runtime : string;
  nthreads : int;
  seed : int;
  wall_ns : int;
  mem_hash : string;
  sync_order_hash : string;
  output_hash : string;
}

type t = { meta : meta; events : Ev.t array }

let record rt ?seed ?nthreads (program : Api.t) =
  let acc = ref [] in
  let observer ev = acc := ev :: !acc in
  let res = Runtime.Run.run rt ?seed ?nthreads ~observer program in
  let events = Array.of_list (List.rev !acc) in
  let meta =
    {
      program = res.Stats.Run_result.program;
      runtime = res.Stats.Run_result.runtime;
      nthreads = res.Stats.Run_result.nthreads;
      seed = res.Stats.Run_result.seed;
      wall_ns = res.Stats.Run_result.wall_ns;
      mem_hash = res.Stats.Run_result.mem_hash;
      sync_order_hash = res.Stats.Run_result.sync_order_hash;
      output_hash = res.Stats.Run_result.output_hash;
    }
  in
  ({ meta; events }, res)

let length t = Array.length t.events

let witness t =
  Printf.sprintf "mem:%s|sync:%s|out:%s" t.meta.mem_hash t.meta.sync_order_hash
    t.meta.output_hash

let boundaries t =
  let max_tid =
    Array.fold_left
      (fun m ev -> match ev with Ev.Boundary { tid; overflow = true; _ } -> max m tid | _ -> m)
      (-1) t.events
  in
  let rev = Array.make (max_tid + 1) [] in
  Array.iter
    (function
      | Ev.Boundary { tid; ic; overflow = true } -> rev.(tid) <- ic :: rev.(tid)
      | _ -> ())
    t.events;
  Array.map (fun l -> Array.of_list (List.rev l)) rev

let chunk_of t ~index ~tid =
  let n = min index (Array.length t.events) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    match t.events.(i) with
    | Ev.Boundary { tid = btid; overflow = false; _ } when btid = tid -> incr count
    | _ -> ()
  done;
  !count

let context t ~index =
  let n = Array.length t.events in
  let lo = max 0 (index - 3) and hi = min (n - 1) (index + 3) in
  let acc = ref [] in
  for i = hi downto lo do
    acc := (i, t.events.(i)) :: !acc
  done;
  !acc

let format_tag = "consequence-schedule"
let format_version = 1

let to_json t =
  let open Obs.Json in
  Obj
    [
      ("format", String format_tag);
      ("version", Int format_version);
      ("program", String t.meta.program);
      ("runtime", String t.meta.runtime);
      ("nthreads", Int t.meta.nthreads);
      ("seed", Int t.meta.seed);
      ("wall_ns", Int t.meta.wall_ns);
      ("mem_hash", String t.meta.mem_hash);
      ("sync_order_hash", String t.meta.sync_order_hash);
      ("output_hash", String t.meta.output_hash);
      ("events", List (Array.to_list (Array.map Ev.to_json t.events)));
    ]

(* The child a spawn's [Release] names: "t:<k>" (a thread exit releases
   "t:<k>:exit", which the int parse rejects). *)
let spawned_child obj =
  if String.starts_with ~prefix:"t:" obj then
    int_of_string_opt (String.sub obj 2 (String.length obj - 2))
  else None

(* A log that parses but that no run could have recorded must fail
   here, not as an exception raised deep inside its replay: at least
   one thread; every event on the main thread (tid 0) or on a thread a
   spawn in the log created; and each thread's overflow boundaries
   positive and strictly ascending, as the scripted overflow policy
   requires.  The tid rule is not "below nthreads": the main thread
   comes on top of the [nthreads] workers, and pipeline programs
   spawn more stages than that. *)
let validate meta events =
  let fail i fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "schedule: event %d: %s" i s)) fmt
  in
  if meta.nthreads < 1 then
    Error (Printf.sprintf "schedule: nthreads %d is below 1" meta.nthreads)
  else begin
    let spawned = Hashtbl.create 16 in
    Array.iter
      (function
        | Ev.Release { obj; _ } ->
            Option.iter (fun c -> Hashtbl.replace spawned c ()) (spawned_child obj)
        | _ -> ())
      events;
    let last_overflow = Hashtbl.create 16 in
    let rec check i =
      if i = Array.length events then Ok ()
      else
        let ev = events.(i) in
        let tid = Ev.tid ev in
        if tid <> 0 && not (Hashtbl.mem spawned tid) then
          fail i "thread %d is not spawned anywhere in the log" tid
        else
          match ev with
          | Ev.Boundary { ic; overflow = true; _ } ->
              let prev = Option.value (Hashtbl.find_opt last_overflow tid) ~default:0 in
              if ic <= 0 then fail i "overflow boundary %d of thread %d is not positive" ic tid
              else if ic <= prev then
                fail i "overflow boundary %d of thread %d is not above the previous one, %d" ic
                  tid prev
              else begin
                Hashtbl.replace last_overflow tid ic;
                check (i + 1)
              end
          | _ -> check (i + 1)
    in
    check 0
  end

let of_json j =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let str name =
    match Option.bind (member name j) to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "schedule: missing string field %S" name)
  in
  let int name =
    match Option.bind (member name j) to_int_opt with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "schedule: missing int field %S" name)
  in
  let* format = str "format" in
  if format <> format_tag then Error (Printf.sprintf "schedule: unknown format %S" format)
  else
    let* version = int "version" in
    if version <> format_version then
      Error (Printf.sprintf "schedule: unsupported version %d" version)
    else
      let* program = str "program" in
      let* runtime = str "runtime" in
      let* nthreads = int "nthreads" in
      let* seed = int "seed" in
      let* wall_ns = int "wall_ns" in
      let* mem_hash = str "mem_hash" in
      let* sync_order_hash = str "sync_order_hash" in
      let* output_hash = str "output_hash" in
      let* items =
        match Option.bind (member "events" j) to_list_opt with
        | Some l -> Ok l
        | None -> Error "schedule: missing \"events\" list"
      in
      let* events =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* ev = Ev.of_json item in
            Ok (ev :: acc))
          (Ok []) items
      in
      let meta =
        { program; runtime; nthreads; seed; wall_ns; mem_hash; sync_order_hash; output_hash }
      in
      let events = Array.of_list (List.rev events) in
      let* () = validate meta events in
      Ok { meta; events }

let save t path = Obs.Json.to_file path (to_json t)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | raw -> Result.bind (Obs.Json.parse raw) of_json

let pp_meta ppf t =
  Format.fprintf ppf "@[<v>%s / %s: %d threads, seed %d@,%d events, witness %s@]"
    t.meta.program t.meta.runtime t.meta.nthreads t.meta.seed (length t) (witness t)

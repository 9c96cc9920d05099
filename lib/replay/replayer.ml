module Ev = Runtime.Rt_event

type divergence = {
  index : int;
  tid : int;
  chunk_index : int;
  expected : Ev.t option;
  actual : Ev.t option;
  context : (int * Ev.t) list;
}

type outcome = {
  result : Stats.Run_result.t;
  divergence : divergence option;
  checked : int;
  hash_match : bool;
}

let runtime_of (log : Schedule.t) =
  let name = log.Schedule.meta.Schedule.runtime in
  match Runtime.Run.of_name name with
  | Some Runtime.Run.Pthreads -> Runtime.Run.Pthreads
  | Some (Runtime.Run.Det cfg) | Some (Runtime.Run.Domains cfg) ->
      (* Replay always re-executes on the DES: scripted boundaries make
         the run fully deterministic, which a real-time backend cannot
         honour for wall_ns. *)
      Runtime.Run.Det
        (Runtime.Config.with_scripted_schedule cfg ~boundaries:(Schedule.boundaries log))
  | None -> invalid_arg (Printf.sprintf "Replayer.runtime_of: unknown runtime preset %S" name)

(* Online checker state: events arrive in the same global order the
   recording observer saw them, so replay checking is a single cursor
   walk over the log. *)
type checker = {
  log : Schedule.t;
  mutable cursor : int;
  mutable first_divergence : divergence option;
}

let divergence_at ck ~index ~expected ~actual =
  let tid =
    match (expected, actual) with
    | Some ev, _ | None, Some ev -> Ev.tid ev
    | None, None -> -1
  in
  {
    index;
    tid;
    chunk_index = Schedule.chunk_of ck.log ~index ~tid;
    expected;
    actual;
    context = Schedule.context ck.log ~index ();
  }

let observe ck ev =
  let i = ck.cursor in
  ck.cursor <- i + 1;
  if ck.first_divergence = None then
    let n = Array.length ck.log.Schedule.events in
    if i >= n then
      ck.first_divergence <- Some (divergence_at ck ~index:i ~expected:None ~actual:(Some ev))
    else
      let expected = ck.log.Schedule.events.(i) in
      if expected <> ev then
        ck.first_divergence <-
          Some (divergence_at ck ~index:i ~expected:(Some expected) ~actual:(Some ev))

let replay ?costs ?runtime (log : Schedule.t) (program : Api.t) =
  let rt = match runtime with Some rt -> rt | None -> runtime_of log in
  (* The event-cursor walk only applies to logs recorded in DES event
     order.  A real-time backend's global interleave is
     timing-dependent — waiters emit their events when their domain
     physically wakes, and intermediate overflow publications change
     count and position with physical timing (only their *order* is
     pinned) — so for domains logs faithfulness is judged by the
     witness hashes alone. *)
  let check_events =
    match Runtime.Run.of_name log.Schedule.meta.Schedule.runtime with
    | Some (Runtime.Run.Domains _) -> false
    | _ -> true
  in
  let ck = { log; cursor = 0; first_divergence = None } in
  let observer = if check_events then Some (observe ck) else None in
  let res =
    Runtime.Run.run rt ?costs ~seed:log.Schedule.meta.Schedule.seed
      ~nthreads:log.Schedule.meta.Schedule.nthreads ?observer program
  in
  let n = Array.length log.Schedule.events in
  let divergence =
    match ck.first_divergence with
    | Some _ as d -> d
    | None when check_events && ck.cursor < n ->
        (* The replay's stream ended before the log did. *)
        Some
          (divergence_at ck ~index:ck.cursor
             ~expected:(Some log.Schedule.events.(ck.cursor))
             ~actual:None)
    | None -> None
  in
  let checked =
    match divergence with Some d -> min d.index n | None -> min ck.cursor n
  in
  let m = log.Schedule.meta in
  let hash_match =
    res.Stats.Run_result.mem_hash = m.Schedule.mem_hash
    && res.Stats.Run_result.sync_order_hash = m.Schedule.sync_order_hash
    && res.Stats.Run_result.output_hash = m.Schedule.output_hash
  in
  { result = res; divergence; checked; hash_match }

let ok o = o.divergence = None && o.hash_match

let guarded f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error msg
  | exception Sim.Engine.Deadlock msg -> Error ("deadlock: " ^ msg)
  | exception Sim.Engine.Stuck msg -> Error ("stuck: " ^ msg)

let pp_event_opt ppf = function
  | Some ev -> Ev.pp ppf ev
  | None -> Format.pp_print_string ppf "<nothing>"

let pp_divergence ppf d =
  Format.fprintf ppf
    "@[<v>divergence at event %d (thread %d, chunk %d)@,expected: %a@,actual:   %a@,context:"
    d.index d.tid d.chunk_index pp_event_opt d.expected pp_event_opt d.actual;
  List.iter
    (fun (i, ev) ->
      Format.fprintf ppf "@,  %c%5d  %a" (if i = d.index then '>' else ' ') i Ev.pp ev)
    d.context;
  Format.fprintf ppf "@]"

let pp_outcome ppf o =
  match o.divergence with
  | None ->
      Format.fprintf ppf "replay ok: %d events matched, witnesses %s" o.checked
        (if o.hash_match then "match" else "DIFFER")
  | Some d ->
      Format.fprintf ppf "@[<v>replay diverged after %d matching events@,%a@]" o.checked
        pp_divergence d

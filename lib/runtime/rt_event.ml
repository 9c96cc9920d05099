type t =
  | Commit of { tid : int; version : int; pages : int list }
  | Release of { tid : int; obj : string }
  | Acquire of { tid : int; obj : string }
  | Conflict of {
      tid : int;
      version : int;
      page : int;
      first_byte : int;
      last_byte : int;
      loser_tid : int;
      loser_version : int;
    }
  | Boundary of { tid : int; ic : int; overflow : bool }
  | Commit_hash of { tid : int; version : int; hash : string }
  | Txn_abort of { tid : int; seq : int; retries : int }
  | Tune_decision of {
      tid : int;
      epoch : int;
      ic : int;
      chunk_base : int;
      chunk_cap : int;
      coarsen : int;
      coarsen_floor : int;
      coarsen_cap : int;
    }

type observer = t -> unit

(* Object names by family: mutex, cond, barrier, thread, thread exit.
   Ids 0-63 get one shared name, and so do the [rel:]/[acq:] instant
   labels of events on those objects. *)
let families = [| ("m:", ""); ("c:", ""); ("b:", ""); ("t:", ""); ("t:", ":exit") |]
let objs = Array.map (fun (p, suffix) -> Obs.Label.table p suffix) families
let obj_mutex m = Obs.Label.get (Array.unsafe_get objs 0) m
let obj_cond c = Obs.Label.get (Array.unsafe_get objs 1) c
let obj_barrier b = Obs.Label.get (Array.unsafe_get objs 2) b
let obj_thread t = Obs.Label.get (Array.unsafe_get objs 3) t
let obj_thread_exit t = Obs.Label.get (Array.unsafe_get objs 4) t

let rels = Array.map (fun (p, suffix) -> Obs.Label.table ("rel:" ^ p) suffix) families
let acqs = Array.map (fun (p, suffix) -> Obs.Label.table ("acq:" ^ p) suffix) families

let digit_at s i =
  if i < String.length s then
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d >= 0 && d <= 9 then d else -1
  else -1

(* [prefix ^ obj], taken from [labels] (by family) when [obj] names an
   object with an interned id.  Reads the family and at most two
   digits; the compare with the interned name checks the rest. *)
let edge_label labels prefix obj =
  let len = String.length obj in
  let d0 = digit_at obj 2 and d1 = digit_at obj 3 in
  let id = if d1 >= 0 then (d0 * 10) + d1 else d0 in
  let family =
    if len < 3 || String.unsafe_get obj 1 <> ':' || d0 < 0 || id >= Obs.Label.n_interned then -1
    else
      match String.unsafe_get obj 0 with
      | 'm' -> 0
      | 'c' -> 1
      | 'b' -> 2
      | 't' -> if len > (if d1 >= 0 then 4 else 3) then 4 else 3
      | _ -> -1
  in
  if family >= 0 && String.equal obj (Obs.Label.get (Array.unsafe_get objs family) id) then
    Obs.Label.get (Array.unsafe_get labels family) id
  else prefix ^ obj

let rec decimal s i acc =
  if i = String.length s then acc
  else
    let d = digit_at s i in
    if d < 0 then -1 else decimal s (i + 1) ((acc * 10) + d)

(* At most 18 digits, so [decimal] cannot overflow. *)
let thread_of_obj obj =
  let len = String.length obj in
  if len < 3 || len > 20 || String.unsafe_get obj 0 <> 't' || String.unsafe_get obj 1 <> ':'
  then -1
  else decimal obj 2 0

let label = function
  | Commit { version; _ } -> Obs.Label.int "commit:v" version
  | Release { obj; _ } -> edge_label rels "rel:" obj
  | Acquire { obj; _ } -> edge_label acqs "acq:" obj
  | Conflict { page; first_byte; last_byte; _ } ->
      Obs.Label.int3 "conflict:p" page "+" first_byte ".." last_byte
  | Boundary { ic; overflow; _ } ->
      Obs.Label.int (if overflow then "overflow:" else "chunk-end:") ic
  | Commit_hash { version; _ } -> Obs.Label.int "hash:v" version
  | Txn_abort { seq; retries; _ } -> Obs.Label.int2 "txn-abort:" seq "." retries
  | Tune_decision { epoch; ic; _ } -> Obs.Label.int2 "tune:e" epoch "@" ic

let tid = function
  | Commit { tid; _ }
  | Release { tid; _ }
  | Acquire { tid; _ }
  | Conflict { tid; _ }
  | Boundary { tid; _ }
  | Commit_hash { tid; _ }
  | Txn_abort { tid; _ }
  | Tune_decision { tid; _ } ->
      tid

let pp ppf ev =
  match ev with
  | Commit { tid; version; pages } ->
      Format.fprintf ppf "@[commit t%d v%d [%s]@]" tid version
        (String.concat "," (List.map string_of_int pages))
  | Release { tid; obj } -> Format.fprintf ppf "rel t%d %s" tid obj
  | Acquire { tid; obj } -> Format.fprintf ppf "acq t%d %s" tid obj
  | Conflict { tid; version; page; first_byte; last_byte; loser_tid; loser_version } ->
      Format.fprintf ppf "@[conflict t%d v%d p%d[%d..%d] over t%d v%d@]" tid version page
        first_byte last_byte loser_tid loser_version
  | Boundary { tid; ic; overflow } ->
      Format.fprintf ppf "%s t%d ic=%d" (if overflow then "overflow" else "chunk-end") tid ic
  | Commit_hash { tid; version; hash } -> Format.fprintf ppf "hash t%d v%d %s" tid version hash
  | Txn_abort { tid; seq; retries } ->
      Format.fprintf ppf "txn-abort t%d seq=%d retries=%d" tid seq retries
  | Tune_decision { tid; epoch; ic; chunk_base; chunk_cap; coarsen; coarsen_floor; coarsen_cap }
    ->
      Format.fprintf ppf
        "@[tune t%d e%d ic=%d chunk=%d..%d coarsen=%d[%d..%d]@]" tid epoch ic chunk_base
        chunk_cap coarsen coarsen_floor coarsen_cap

let to_json ev : Obs.Json.t =
  let open Obs.Json in
  match ev with
  | Commit { tid; version; pages } ->
      Obj
        [
          ("kind", String "commit");
          ("tid", Int tid);
          ("version", Int version);
          ("pages", List (List.map (fun p -> Int p) pages));
        ]
  | Release { tid; obj } ->
      Obj [ ("kind", String "release"); ("tid", Int tid); ("obj", String obj) ]
  | Acquire { tid; obj } ->
      Obj [ ("kind", String "acquire"); ("tid", Int tid); ("obj", String obj) ]
  | Conflict { tid; version; page; first_byte; last_byte; loser_tid; loser_version } ->
      Obj
        [
          ("kind", String "conflict");
          ("tid", Int tid);
          ("version", Int version);
          ("page", Int page);
          ("first_byte", Int first_byte);
          ("last_byte", Int last_byte);
          ("loser_tid", Int loser_tid);
          ("loser_version", Int loser_version);
        ]
  | Boundary { tid; ic; overflow } ->
      Obj
        [
          ("kind", String "boundary");
          ("tid", Int tid);
          ("ic", Int ic);
          ("overflow", Bool overflow);
        ]
  | Commit_hash { tid; version; hash } ->
      Obj
        [
          ("kind", String "commit_hash");
          ("tid", Int tid);
          ("version", Int version);
          ("hash", String hash);
        ]
  | Txn_abort { tid; seq; retries } ->
      Obj
        [
          ("kind", String "txn_abort");
          ("tid", Int tid);
          ("seq", Int seq);
          ("retries", Int retries);
        ]
  | Tune_decision { tid; epoch; ic; chunk_base; chunk_cap; coarsen; coarsen_floor; coarsen_cap }
    ->
      Obj
        [
          ("kind", String "tune_decision");
          ("tid", Int tid);
          ("epoch", Int epoch);
          ("ic", Int ic);
          ("chunk_base", Int chunk_base);
          ("chunk_cap", Int chunk_cap);
          ("coarsen", Int coarsen);
          ("coarsen_floor", Int coarsen_floor);
          ("coarsen_cap", Int coarsen_cap);
        ]

(* Inverse of [to_json]; the schedule logs of [lib/replay] round-trip
   through exactly the schema the trace exporters emit. *)
let of_json (j : Obs.Json.t) : (t, string) result =
  let open Obs.Json in
  let field name conv =
    match member name j with
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "rt_event: field %S has the wrong type" name))
    | None -> Error (Printf.sprintf "rt_event: missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let int name = field name to_int_opt in
  let str name = field name to_string_opt in
  let bool name = field name (function Bool b -> Some b | _ -> None) in
  let* kind = str "kind" in
  match kind with
  | "commit" ->
      let* tid = int "tid" in
      let* version = int "version" in
      let* pages =
        field "pages" (fun v ->
            match to_list_opt v with
            | Some items ->
                let rec conv acc = function
                  | [] -> Some (List.rev acc)
                  | x :: rest -> (
                      match to_int_opt x with Some i -> conv (i :: acc) rest | None -> None)
                in
                conv [] items
            | None -> None)
      in
      Ok (Commit { tid; version; pages })
  | "release" ->
      let* tid = int "tid" in
      let* obj = str "obj" in
      Ok (Release { tid; obj })
  | "acquire" ->
      let* tid = int "tid" in
      let* obj = str "obj" in
      Ok (Acquire { tid; obj })
  | "conflict" ->
      let* tid = int "tid" in
      let* version = int "version" in
      let* page = int "page" in
      let* first_byte = int "first_byte" in
      let* last_byte = int "last_byte" in
      let* loser_tid = int "loser_tid" in
      let* loser_version = int "loser_version" in
      Ok (Conflict { tid; version; page; first_byte; last_byte; loser_tid; loser_version })
  | "boundary" ->
      let* tid = int "tid" in
      let* ic = int "ic" in
      let* overflow = bool "overflow" in
      Ok (Boundary { tid; ic; overflow })
  | "commit_hash" ->
      let* tid = int "tid" in
      let* version = int "version" in
      let* hash = str "hash" in
      Ok (Commit_hash { tid; version; hash })
  | "txn_abort" ->
      let* tid = int "tid" in
      let* seq = int "seq" in
      let* retries = int "retries" in
      Ok (Txn_abort { tid; seq; retries })
  | "tune_decision" ->
      let* tid = int "tid" in
      let* epoch = int "epoch" in
      let* ic = int "ic" in
      let* chunk_base = int "chunk_base" in
      let* chunk_cap = int "chunk_cap" in
      let* coarsen = int "coarsen" in
      let* coarsen_floor = int "coarsen_floor" in
      let* coarsen_cap = int "coarsen_cap" in
      Ok
        (Tune_decision
           { tid; epoch; ic; chunk_base; chunk_cap; coarsen; coarsen_floor; coarsen_cap })
  | other -> Error (Printf.sprintf "rt_event: unknown kind %S" other)

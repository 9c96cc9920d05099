module St = Obs.Thread_state

(* ------------------------------------------------------------------ *)
(* Per-thread accumulators, folded as intervals arrive                 *)
(* ------------------------------------------------------------------ *)

(* Chunk ordinals count a thread's chunk opens, so they are dense:
   [window.(k)] holds ordinal [base + k]'s per-state ns, [[||]] for an
   ordinal no interval carried.  An ordinal that would stretch the
   window too far (see [extend]) goes to [far] instead, so any sequence
   of ordinals folds exactly in space linear in the chunks seen.  [slot]
   caches ordinal [ck]'s array: a chunk's intervals arrive together. *)
type acc = {
  tid : int;
  by_state : int array;
  mutable n : int;
  mutable first : int;
  mutable last : int;
  mutable gap : int;
  mutable overlap : int;
  mutable ck : int;
  mutable slot : int array;
  mutable base : int;
  mutable window : int array array;
  mutable used : int; (* non-empty window entries *)
  far : (int, int array) Hashtbl.t;
}

let new_acc tid =
  {
    tid;
    by_state = Array.make St.n 0;
    n = 0;
    first = 0;
    last = 0;
    gap = 0;
    overlap = 0;
    ck = 0;
    slot = [||];
    base = 0;
    window = [||];
    used = 0;
    far = Hashtbl.create 1;
  }

(* Re-size the window so that it also covers [ck], unless that would
   make it longer than four times its used entries plus 20.
   Differences are checked for overflow: ordinals can be any int. *)
let extend a ck =
  let len = Array.length a.window in
  if len = 0 then begin
    a.base <- ck;
    a.window <- Array.make 16 [||];
    true
  end
  else begin
    let limit = (4 * a.used) + 20 in
    let k = ck - a.base in
    if ck > a.base then
      k > 0 && k < limit
      && begin
           let w = Array.make (min limit (max (k + 1) (2 * len))) [||] in
           Array.blit a.window 0 w 0 len;
           a.window <- w;
           true
         end
    else
      let d = -k in
      d > 0 && d < limit - len
      && begin
           let w = Array.make (min limit (max (len + d) (2 * len))) [||] in
           Array.blit a.window 0 w d len;
           a.window <- w;
           a.base <- ck;
           true
         end
  end

(* A window entry is created once per ordinal; an ordinal parked in
   [far] before the window reached it moves in. *)
let fill a k ck =
  let s =
    if Hashtbl.length a.far = 0 then Array.make St.n 0
    else
      match Hashtbl.find_opt a.far ck with
      | Some s ->
          Hashtbl.remove a.far ck;
          s
      | None -> Array.make St.n 0
  in
  a.window.(k) <- s;
  a.used <- a.used + 1;
  s

let rec find_slot a ck =
  let k = ck - a.base in
  if ck >= a.base && k >= 0 && k < Array.length a.window then
    let s = a.window.(k) in
    if s != [||] then s else fill a k ck
  else if extend a ck then find_slot a ck
  else
    match Hashtbl.find_opt a.far ck with
    | Some s -> s
    | None ->
        let s = Array.make St.n 0 in
        Hashtbl.add a.far ck s;
        s

let fold a (iv : St.interval) si d =
  a.by_state.(si) <- a.by_state.(si) + d;
  let slot =
    if a.slot != [||] && iv.St.chunk = a.ck then a.slot
    else begin
      let s = find_slot a iv.St.chunk in
      a.ck <- iv.St.chunk;
      a.slot <- s;
      s
    end
  in
  slot.(si) <- slot.(si) + d;
  if a.n = 0 then a.first <- iv.St.t0
  else if iv.St.t0 > a.last then a.gap <- a.gap + (iv.St.t0 - a.last)
  else if iv.St.t0 < a.last then a.overlap <- a.overlap + (a.last - iv.St.t0);
  a.last <- iv.St.t1;
  a.n <- a.n + 1

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* Tids in [0, dense_tids) index [accs]; any other tid is in [sparse]. *)
let dense_tids = 4096

type collector = {
  log : Obs.Interval_log.t;
  mutable accs : acc option array;
  sparse : (int, acc) Hashtbl.t;
  metrics : Obs.Metrics.t;
  hists : Obs.Metrics.histogram array; (* ["state:<name>"], by state index *)
  mutable parents_rev : (int * int) list; (* (child, parent) spawn edges *)
}

let create () =
  let metrics = Obs.Metrics.create () in
  {
    log = Obs.Interval_log.create ();
    accs = [||];
    sparse = Hashtbl.create 1;
    metrics;
    hists =
      Array.of_list
        (List.map (fun st -> Obs.Metrics.histogram metrics ("state:" ^ St.name st)) St.all);
    parents_rev = [];
  }

let acc_of c tid =
  if tid >= 0 && tid < dense_tids then begin
    if tid >= Array.length c.accs then begin
      let a = Array.make (max 16 (max (tid + 1) (2 * Array.length c.accs))) None in
      Array.blit c.accs 0 a 0 (Array.length c.accs);
      c.accs <- a
    end;
    match c.accs.(tid) with
    | Some a -> a
    | None ->
        let a = new_acc tid in
        c.accs.(tid) <- Some a;
        a
  end
  else
    match Hashtbl.find_opt c.sparse tid with
    | Some a -> a
    | None ->
        let a = new_acc tid in
        Hashtbl.add c.sparse tid a;
        a

(* The histogram is recorded first: it rejects a negative duration
   before anything else has changed. *)
let add c (iv : St.interval) =
  let d = St.duration iv and si = St.index iv.St.state in
  Obs.Metrics.record c.hists.(si) d;
  fold (acc_of c iv.St.stid) iv si d;
  Obs.Interval_log.push c.log iv

let sink c = { Obs.Sink.span = (fun _ -> ()); instant = (fun _ -> ()); state = add c }

(* A spawn emits [Release { obj = "t:<child>" }] from the parent (the
   exit release is "t:<k>:exit", which [thread_of_obj] rejects). *)
let observer c : Runtime.Rt_event.observer = function
  | Runtime.Rt_event.Release { tid; obj } ->
      let child = Runtime.Rt_event.thread_of_obj obj in
      if child >= 0 then c.parents_rev <- (child, tid) :: c.parents_rev
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type thread_profile = {
  ptid : int;
  by_state : int array; (* St.n entries, ns *)
  intervals : int; (* how many; the intervals are in [t.log] *)
  first_ns : int;
  last_ns : int;
  gap_ns : int; (* uncovered time strictly inside [first_ns, last_ns] *)
  overlap_ns : int; (* double-covered time (must be 0: intervals tile) *)
  chunks : (int * int array) array; (* (chunk ordinal, per-state ns), ascending *)
}

type t = {
  threads : thread_profile list; (* ascending tid *)
  totals : int array;
  wall_ns : int;
  parents : (int * int) list; (* (child, parent), ascending child *)
  hists : Obs.Metrics.snapshot; (* per-state interval-length histograms *)
  nintervals : int;
  log : Obs.Interval_log.view;
}

let lifetime_ns tp = tp.last_ns - tp.first_ns
let busy_ns tp = Array.fold_left ( + ) 0 tp.by_state

(* Copies every array, so later intervals leave the profile as it is. *)
let thread_profile a =
  let chunks = Array.make (a.used + Hashtbl.length a.far) (0, [||]) in
  let j = ref 0 in
  let put ck s =
    chunks.(!j) <- (ck, Array.copy s);
    incr j
  in
  Array.iteri (fun k s -> if s != [||] then put (a.base + k) s) a.window;
  if Hashtbl.length a.far > 0 then begin
    Hashtbl.iter put a.far;
    Array.sort (fun (x, _) (y, _) -> compare x y) chunks
  end;
  {
    ptid = a.tid;
    by_state = Array.copy a.by_state;
    intervals = a.n;
    first_ns = a.first;
    last_ns = a.last;
    gap_ns = a.gap;
    overlap_ns = a.overlap;
    chunks;
  }

(* O(threads + chunks): the intervals were folded as they arrived. *)
let finish c ~wall_ns =
  let threads =
    Array.fold_right
      (fun a acc -> match a with Some a -> thread_profile a :: acc | None -> acc)
      c.accs []
  in
  let threads =
    if Hashtbl.length c.sparse = 0 then threads
    else
      Hashtbl.fold (fun _ a acc -> thread_profile a :: acc) c.sparse threads
      |> List.sort (fun x y -> compare x.ptid y.ptid)
  in
  let totals = Array.make St.n 0 in
  List.iter
    (fun tp -> Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) tp.by_state)
    threads;
  {
    threads;
    totals;
    wall_ns;
    parents = List.sort_uniq compare c.parents_rev;
    hists = Obs.Metrics.snapshot c.metrics;
    nintervals = Obs.Interval_log.length c.log;
    log = Obs.Interval_log.view c.log;
  }

let parent_of t tid = List.assoc_opt tid t.parents

(* Conservation: each thread's intervals tile its lifetime exactly —
   no gaps, no overlaps, and the per-state sums account for every
   nanosecond between its first and last interval. *)
let thread_conserved tp =
  tp.gap_ns = 0 && tp.overlap_ns = 0 && busy_ns tp = lifetime_ns tp

let conservation_ok t = List.for_all thread_conserved t.threads

(* Per-chunk sums must re-partition the per-thread sums. *)
let chunks_consistent tp =
  let sums = Array.make St.n 0 in
  Array.iter
    (fun (_, a) -> Array.iteri (fun i v -> sums.(i) <- sums.(i) + v) a)
    tp.chunks;
  sums = tp.by_state

let share tp st =
  let life = lifetime_ns tp in
  if life = 0 then 0.0 else float_of_int tp.by_state.(St.index st) /. float_of_int life

(* The one shared derivation of "what fraction of the busy time went
   where": every consumer (report tables, what-if baselines, the
   self-tuning controller's profile-to-params mapping) reads this so
   their percentages cannot drift apart. *)
let state_shares t =
  let busy = Array.fold_left ( + ) 0 t.totals in
  List.map
    (fun st ->
      ( st,
        if busy = 0 then 0.0 else float_of_int t.totals.(St.index st) /. float_of_int busy ))
    St.all

let state_share t st =
  match List.assoc_opt st (state_shares t) with Some s -> s | None -> 0.0

let thread_to_json tp =
  Obs.Json.Obj
    [
      ("tid", Obs.Json.Int tp.ptid);
      ("first_ns", Obs.Json.Int tp.first_ns);
      ("last_ns", Obs.Json.Int tp.last_ns);
      ("lifetime_ns", Obs.Json.Int (lifetime_ns tp));
      ("gap_ns", Obs.Json.Int tp.gap_ns);
      ("overlap_ns", Obs.Json.Int tp.overlap_ns);
      ("intervals", Obs.Json.Int tp.intervals);
      ("chunks", Obs.Json.Int (Array.length tp.chunks));
      ( "by_state",
        Obs.Json.Obj
          (List.map
             (fun st -> (St.name st, Obs.Json.Int tp.by_state.(St.index st)))
             St.all) );
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("wall_ns", Obs.Json.Int t.wall_ns);
      ("intervals", Obs.Json.Int t.nintervals);
      ("conserved", Obs.Json.Bool (conservation_ok t));
      ( "totals",
        Obs.Json.Obj
          (List.map (fun st -> (St.name st, Obs.Json.Int t.totals.(St.index st))) St.all) );
      ("threads", Obs.Json.List (List.map thread_to_json t.threads));
      ( "parents",
        Obs.Json.List
          (List.map
             (fun (child, parent) ->
               Obs.Json.Obj
                 [ ("child", Obs.Json.Int child); ("parent", Obs.Json.Int parent) ])
             t.parents) );
      ("state_histograms", Obs.Metrics.to_json t.hists);
    ]

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "wall %dns, %d threads, %d intervals, conservation %s@,"
    t.wall_ns (List.length t.threads) t.nintervals
    (if conservation_ok t then "exact" else "VIOLATED");
  Format.fprintf fmt "%-6s %-12s" "tid" "lifetime";
  List.iter (fun st -> Format.fprintf fmt " %12s" (St.name st)) St.all;
  Format.fprintf fmt "@,";
  List.iter
    (fun tp ->
      Format.fprintf fmt "%-6d %-12d" tp.ptid (lifetime_ns tp);
      List.iter
        (fun st -> Format.fprintf fmt " %11.1f%%" (100.0 *. share tp st))
        St.all;
      Format.fprintf fmt "@,")
    t.threads;
  Format.fprintf fmt "@]"

module St = Obs.Thread_state

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

type collector = {
  mutable states_rev : St.interval list;
  mutable nstates : int;
  mutable parents_rev : (int * int) list; (* (child, parent) spawn edges *)
}

let create () = { states_rev = []; nstates = 0; parents_rev = [] }

let sink c =
  {
    Obs.Sink.span = (fun _ -> ());
    instant = (fun _ -> ());
    state =
      (fun iv ->
        c.states_rev <- iv :: c.states_rev;
        c.nstates <- c.nstates + 1);
  }

(* A spawn emits [Release { obj = "t:<child>" }] from the parent (the
   exit release is "t:<k>:exit", which the int parse rejects). *)
let child_of_obj obj =
  if String.length obj > 2 && obj.[0] = 't' && obj.[1] = ':' then
    int_of_string_opt (String.sub obj 2 (String.length obj - 2))
  else None

let observer c : Runtime.Rt_event.observer = function
  | Runtime.Rt_event.Release { tid; obj } -> (
      match child_of_obj obj with
      | Some child -> c.parents_rev <- (child, tid) :: c.parents_rev
      | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type thread_profile = {
  ptid : int;
  by_state : int array; (* St.n entries, ns *)
  intervals : St.interval array; (* per-thread time order *)
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
}

let lifetime_ns tp = tp.last_ns - tp.first_ns
let busy_ns tp = Array.fold_left ( + ) 0 tp.by_state

(* One thread's aggregates.  [hists] holds the interned per-state
   histogram handles, by state index. *)
let profile_thread hists tid (ivs : St.interval array) =
  let n = Array.length ivs in
  let by_state = Array.make St.n 0 in
  (* Chunk ordinals count a thread's chunk opens, so they index a dense
     slot array directly; [[||]] marks an ordinal no interval carried. *)
  let ck_lo = ref max_int and ck_hi = ref min_int in
  Array.iter
    (fun (iv : St.interval) ->
      if iv.St.chunk < !ck_lo then ck_lo := iv.St.chunk;
      if iv.St.chunk > !ck_hi then ck_hi := iv.St.chunk)
    ivs;
  let ck_lo = !ck_lo in
  let slots = Array.make (if n = 0 then 0 else !ck_hi - ck_lo + 1) [||] in
  let gap = ref 0 and overlap = ref 0 in
  for i = 0 to n - 1 do
    let iv = Array.unsafe_get ivs i in
    let d = St.duration iv in
    let si = St.index iv.St.state in
    by_state.(si) <- by_state.(si) + d;
    Obs.Metrics.record hists.(si) d;
    let k = iv.St.chunk - ck_lo in
    let slot =
      let a = slots.(k) in
      if a != [||] then a
      else begin
        let a = Array.make St.n 0 in
        slots.(k) <- a;
        a
      end
    in
    slot.(si) <- slot.(si) + d;
    if i > 0 then begin
      let prev_t1 = ivs.(i - 1).St.t1 in
      if iv.St.t0 > prev_t1 then gap := !gap + (iv.St.t0 - prev_t1)
      else if iv.St.t0 < prev_t1 then overlap := !overlap + (prev_t1 - iv.St.t0)
    end
  done;
  let nchunks = Array.fold_left (fun acc a -> if a != [||] then acc + 1 else acc) 0 slots in
  let chunks = Array.make nchunks (0, [||]) in
  let j = ref 0 in
  Array.iteri
    (fun k a ->
      if a != [||] then begin
        chunks.(!j) <- (k + ck_lo, a);
        incr j
      end)
    slots;
  {
    ptid = tid;
    by_state;
    intervals = ivs;
    first_ns = (if n = 0 then 0 else ivs.(0).St.t0);
    last_ns = (if n = 0 then 0 else ivs.(n - 1).St.t1);
    gap_ns = !gap;
    overlap_ns = !overlap;
    chunks;
  }

let finish c ~wall_ns =
  (* Tids are dense from 0, so they index per-thread arrays directly.  A
     counting pass sizes each thread's interval array exactly; states_rev
     is newest-first, so filling each array from its end leaves it in
     per-thread time order without a sort. *)
  let lo = ref max_int and hi = ref min_int in
  List.iter
    (fun (iv : St.interval) ->
      if iv.St.stid < !lo then lo := iv.St.stid;
      if iv.St.stid > !hi then hi := iv.St.stid)
    c.states_rev;
  let lo = !lo in
  let counts = Array.make (if c.nstates = 0 then 0 else !hi - lo + 1) 0 in
  List.iter
    (fun (iv : St.interval) ->
      let k = iv.St.stid - lo in
      counts.(k) <- counts.(k) + 1)
    c.states_rev;
  let by_tid = Array.make (Array.length counts) [||] in
  List.iter
    (fun (iv : St.interval) ->
      let k = iv.St.stid - lo in
      if by_tid.(k) == [||] then by_tid.(k) <- Array.make counts.(k) iv;
      let j = counts.(k) - 1 in
      counts.(k) <- j;
      by_tid.(k).(j) <- iv)
    c.states_rev;
  let metrics = Obs.Metrics.create () in
  let hists =
    Array.of_list
      (List.map (fun st -> Obs.Metrics.histogram metrics ("state:" ^ St.name st)) St.all)
  in
  let threads = ref [] in
  for k = Array.length by_tid - 1 downto 0 do
    if by_tid.(k) != [||] then threads := profile_thread hists (k + lo) by_tid.(k) :: !threads
  done;
  let threads = !threads in
  let totals = Array.make St.n 0 in
  List.iter
    (fun tp -> Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) tp.by_state)
    threads;
  let parents = List.sort_uniq compare c.parents_rev in
  { threads; totals; wall_ns; parents; hists = Obs.Metrics.snapshot metrics; nintervals = c.nstates }

let thread t tid = List.find_opt (fun tp -> tp.ptid = tid) t.threads
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

let total_share t st =
  let life = List.fold_left (fun acc tp -> acc + lifetime_ns tp) 0 t.threads in
  if life = 0 then 0.0 else float_of_int t.totals.(St.index st) /. float_of_int life

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
      ("intervals", Obs.Json.Int (Array.length tp.intervals));
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

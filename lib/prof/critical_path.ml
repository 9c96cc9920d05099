module St = Obs.Thread_state

type t = {
  path_ns : int;
  wall_ns : int;
  by_state : int array; (* ns on the path per state *)
  by_thread : (int * int) list; (* (tid, ns on path), descending ns *)
  top_chunks : (int * int * int) list; (* (tid, chunk, ns on path), descending *)
  segments : int;
  bridged : int; (* waits crossed to the waking thread *)
  unbridged_wait_ns : int; (* wait time attributed because no waker was known *)
  truncated : bool; (* safety cap hit; path_ns is a lower bound *)
}

let is_wait = St.is_wait

(* Largest index i with ivs.(i).t0 < t, or -1. *)
let find_before (ivs : St.interval array) t =
  let lo = ref 0 and hi = ref (Array.length ivs) in
  (* invariant: ivs.(lo-1).t0 < t <= ivs.(hi).t0 (virtual sentinels) *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ivs.(mid).St.t0 < t then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* One thread's intervals, filled in arrival order. *)
type slot = { size : int; mutable ivs : St.interval array; mutable filled : int }

(* Each thread's intervals in time order, decoded from the tracer's log
   in one pass: arrival order is each thread's time order, and the
   profile counts each thread's intervals, which sizes its array. *)
let thread_intervals (p : Profile.t) tracer =
  let slots = Hashtbl.create 16 in
  List.iter
    (fun (tp : Profile.thread_profile) ->
      Hashtbl.replace slots tp.Profile.ptid { size = tp.Profile.intervals; ivs = [||]; filled = 0 })
    p.Profile.threads;
  Obs.Tracer.iter_states
    (fun (iv : St.interval) ->
      let s = Hashtbl.find slots iv.St.stid in
      if s.filled = 0 then s.ivs <- Array.make s.size iv;
      s.ivs.(s.filled) <- iv;
      s.filled <- s.filled + 1)
    tracer;
  let tbl : (int, St.interval array) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter (fun tid s -> if s.filled > 0 then Hashtbl.replace tbl tid s.ivs) slots;
  tbl

let compute (p : Profile.t) tracer =
  let tbl = thread_intervals p tracer in
  let by_state = Array.make St.n 0 in
  let by_thread : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let by_chunk : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let segments = ref 0 and bridged = ref 0 and unbridged = ref 0 and truncated = ref false in
  (* Start from the globally latest interval end. *)
  let start =
    List.fold_left
      (fun acc (tp : Profile.thread_profile) ->
        if tp.Profile.intervals = 0 then acc
        else
          match acc with
          | Some (_, t1) when t1 >= tp.Profile.last_ns -> acc
          | _ -> Some (tp.Profile.ptid, tp.Profile.last_ns))
      None p.Profile.threads
  in
  (match start with
  | None -> ()
  | Some (tid0, t_end) ->
      let cur_tid = ref tid0 and cur_t = ref t_end in
      let step_cap = (4 * p.Profile.nintervals) + 1024 in
      let stall = ref 0 in
      let running = ref true in
      while !running do
        if !segments > step_cap then begin
          truncated := true;
          running := false
        end
        else begin
          let ivs = try Hashtbl.find tbl !cur_tid with Not_found -> [||] in
          let i = if Array.length ivs = 0 then -1 else find_before ivs !cur_t in
          if i < 0 then
            (* Before this thread's first interval: continue on the
               spawning parent at the same instant (the child's birth
               waited on the parent's spawn). *)
            match Profile.parent_of p !cur_tid with
            | Some parent when parent <> !cur_tid -> begin
                cur_tid := parent;
                incr stall;
                if !stall > 64 then running := false
              end
            | _ -> running := false
          else begin
            let iv = ivs.(i) in
            incr segments;
            let contrib = min iv.St.t1 !cur_t - iv.St.t0 in
            let w = iv.St.waker in
            let bridgeable =
              is_wait iv.St.state && w >= 0 && w <> !cur_tid && Hashtbl.mem tbl w
              && !stall <= 64
            in
            if bridgeable then begin
              (* The wait ended because of [w]'s action at (or just
                 before) its end: the path continues on the waker, and
                 the wait itself contributes nothing. *)
              incr bridged;
              let jump_t = min iv.St.t1 !cur_t in
              if jump_t >= !cur_t then incr stall else stall := 0;
              cur_tid := w;
              cur_t := jump_t
            end
            else begin
              if contrib > 0 then begin
                let si = St.index iv.St.state in
                by_state.(si) <- by_state.(si) + contrib;
                add by_thread !cur_tid contrib;
                add by_chunk (!cur_tid, iv.St.chunk) contrib;
                if is_wait iv.St.state then unbridged := !unbridged + contrib;
                stall := 0
              end
              else begin
                incr stall;
                if !stall > 256 then begin
                  truncated := true;
                  running := false
                end
              end;
              cur_t := iv.St.t0
            end
          end
        end
      done);
  let path_ns = Array.fold_left ( + ) 0 by_state in
  let by_thread =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_thread []
    |> List.sort (fun (ta, a) (tb, b) -> compare (-a, ta) (-b, tb))
  in
  let top_chunks =
    Hashtbl.fold (fun (tid, ck) v acc -> (tid, ck, v) :: acc) by_chunk []
    |> List.sort (fun (ta, ca, a) (tb, cb, b) -> compare (-a, ta, ca) (-b, tb, cb))
    |> List.filteri (fun i _ -> i < 10)
  in
  {
    path_ns;
    wall_ns = p.Profile.wall_ns;
    by_state;
    by_thread;
    top_chunks;
    segments = !segments;
    bridged = !bridged;
    unbridged_wait_ns = !unbridged;
    truncated = !truncated;
  }

(* Analytic upper bound: removing every on-path nanosecond of one state
   can shorten the critical path — and hence the wall clock — by at most
   that amount.  COZ-style "what would speeding X up buy" ceilings; the
   replay-based {!Whatif} gives the corresponding measured numbers. *)
let projections t =
  List.filter_map
    (fun st ->
      let on_path = t.by_state.(St.index st) in
      if on_path <= 0 || t.wall_ns <= 0 then None
      else
        let bound =
          if on_path >= t.wall_ns then infinity
          else float_of_int t.wall_ns /. float_of_int (t.wall_ns - on_path)
        in
        Some (St.name st, bound))
    St.all

let to_json t =
  Obs.Json.Obj
    [
      ("path_ns", Obs.Json.Int t.path_ns);
      ("wall_ns", Obs.Json.Int t.wall_ns);
      ("segments", Obs.Json.Int t.segments);
      ("bridged_waits", Obs.Json.Int t.bridged);
      ("unbridged_wait_ns", Obs.Json.Int t.unbridged_wait_ns);
      ("truncated", Obs.Json.Bool t.truncated);
      ( "by_state",
        Obs.Json.Obj
          (List.map (fun st -> (St.name st, Obs.Json.Int t.by_state.(St.index st))) St.all) );
      ( "by_thread",
        Obs.Json.List
          (List.map
             (fun (tid, ns) ->
               Obs.Json.Obj [ ("tid", Obs.Json.Int tid); ("ns", Obs.Json.Int ns) ])
             t.by_thread) );
      ( "top_chunks",
        Obs.Json.List
          (List.map
             (fun (tid, ck, ns) ->
               Obs.Json.Obj
                 [
                   ("tid", Obs.Json.Int tid);
                   ("chunk", Obs.Json.Int ck);
                   ("ns", Obs.Json.Int ns);
                 ])
             t.top_chunks) );
      ( "projections",
        Obs.Json.Obj
          (List.map (fun (name, s) -> (name, Obs.Json.Float s)) (projections t)) );
    ]

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt
    "critical path: %dns of %dns wall (%.1f%%), %d segments, %d waits bridged%s@,"
    t.path_ns t.wall_ns
    (if t.wall_ns = 0 then 0.0 else 100.0 *. float_of_int t.path_ns /. float_of_int t.wall_ns)
    t.segments t.bridged
    (if t.truncated then " [truncated]" else "");
  List.iter
    (fun st ->
      let ns = t.by_state.(St.index st) in
      if ns > 0 then
        Format.fprintf fmt "  %-14s %12dns  (%.1f%% of path)@," (St.name st) ns
          (100.0 *. float_of_int ns /. float_of_int (max 1 t.path_ns)))
    St.all;
  (match t.by_thread with
  | [] -> ()
  | l ->
      Format.fprintf fmt "  on-path threads:";
      List.iter (fun (tid, ns) -> Format.fprintf fmt " t%d:%dns" tid ns) l;
      Format.fprintf fmt "@,");
  List.iter
    (fun (name, s) ->
      if s > 1.0005 then
        Format.fprintf fmt "  eliminating on-path %-14s => <= %.3fx speedup@," name s)
    (projections t);
  Format.fprintf fmt "@]"

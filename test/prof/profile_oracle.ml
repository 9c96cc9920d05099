(* An earlier [Prof.Profile.finish], kept as the oracle for the fold
   on arrival: per-tid lists grouped through a hashtable, a hashtable
   of chunk slots per thread, and one string-keyed histogram
   observation per interval.  It reads the intervals as a plain
   argument. *)

module St = Obs.Thread_state
open Prof.Profile

let finish ~states_rev ~nstates ~parents_rev ~wall_ns =
  let by_tid : (int, St.interval list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (iv : St.interval) ->
      match Hashtbl.find_opt by_tid iv.St.stid with
      | Some r -> r := iv :: !r
      | None -> Hashtbl.add by_tid iv.St.stid (ref [ iv ]))
    states_rev;
  let metrics = Obs.Metrics.create () in
  let per_thread =
    Hashtbl.fold (fun tid r acc -> (tid, Array.of_list !r) :: acc) by_tid []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let threads =
    per_thread
    |> List.map (fun (tid, ivs) ->
           let n = Array.length ivs in
           let by_state = Array.make St.n 0 in
           let chunk_acc : (int, int array) Hashtbl.t = Hashtbl.create 64 in
           let gap = ref 0 and overlap = ref 0 in
           Array.iteri
             (fun i (iv : St.interval) ->
               let d = St.duration iv in
               let si = St.index iv.St.state in
               by_state.(si) <- by_state.(si) + d;
               Obs.Metrics.observe metrics ("state:" ^ St.name iv.St.state) d;
               (let slot =
                  match Hashtbl.find_opt chunk_acc iv.St.chunk with
                  | Some a -> a
                  | None ->
                      let a = Array.make St.n 0 in
                      Hashtbl.add chunk_acc iv.St.chunk a;
                      a
                in
                slot.(si) <- slot.(si) + d);
               if i > 0 then begin
                 let prev_t1 = ivs.(i - 1).St.t1 in
                 if iv.St.t0 > prev_t1 then gap := !gap + (iv.St.t0 - prev_t1)
                 else if iv.St.t0 < prev_t1 then overlap := !overlap + (prev_t1 - iv.St.t0)
               end)
             ivs;
           let chunks =
             Hashtbl.fold (fun ck a acc -> (ck, a) :: acc) chunk_acc []
             |> List.sort (fun (a, _) (b, _) -> compare a b)
             |> Array.of_list
           in
           {
             ptid = tid;
             by_state;
             intervals = n;
             first_ns = (if n = 0 then 0 else ivs.(0).St.t0);
             last_ns = (if n = 0 then 0 else ivs.(n - 1).St.t1);
             gap_ns = !gap;
             overlap_ns = !overlap;
             chunks;
           })
  in
  let totals = Array.make St.n 0 in
  List.iter
    (fun tp -> Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) tp.by_state)
    threads;
  let parents = List.sort_uniq compare parents_rev in
  {
    threads;
    totals;
    wall_ns;
    parents;
    hists = Obs.Metrics.snapshot metrics;
    nintervals = nstates;
  }

type variant = {
  description : string;
  wall_ns : int;
  overflow_interrupts : int;
  witness : string;
  racy : int;
  sync_ordered : int;
}

type report = {
  base : variant;
  variants : variant list;
  distinct_timings : int;
  distinct_witnesses : int;
  conflicts_stable : bool;
  deterministic : bool;
}

(* A plausible gap to open past the last recorded boundary (or for a
   thread that never overflowed): the adaptive policy's base interval,
   doubled so a split lands at the base. *)
let virtual_gap = 2 * Detclock.Overflow_policy.default_base

(* One random boundary edit; [None] when the drawn edit is infeasible
   (e.g. merging from an empty array).  The caller redraws. *)
let perturb prng (bounds : int array array) =
  let ntids = Array.length bounds in
  let tid = Sim.Prng.int prng ~bound:ntids in
  let b = bounds.(tid) in
  let len = Array.length b in
  let fresh nb =
    let copy = Array.map Array.copy bounds in
    copy.(tid) <- nb;
    copy
  in
  match Sim.Prng.int prng ~bound:3 with
  | 0 ->
      (* Split: insert a boundary in the middle of a gap (possibly the
         virtual gap past the end), shortening one chunk. *)
      let k = Sim.Prng.int prng ~bound:(len + 1) in
      let prev = if k = 0 then 0 else b.(k - 1) in
      let next = if k = len then prev + virtual_gap else b.(k) in
      if next - prev < 2 then None
      else
        let mid = prev + ((next - prev) / 2) in
        let nb =
          Array.init (len + 1) (fun i -> if i < k then b.(i) else if i = k then mid else b.(i - 1))
        in
        Some (Printf.sprintf "t%d: split gap %d, new boundary at ic %d" tid k mid, fresh nb)
  | 1 ->
      (* Merge: delete a boundary, fusing two publication intervals. *)
      if len = 0 then None
      else
        let k = Sim.Prng.int prng ~bound:len in
        let nb = Array.init (len - 1) (fun i -> if i < k then b.(i) else b.(i + 1)) in
        Some (Printf.sprintf "t%d: merge boundary %d (was ic %d)" tid k b.(k), fresh nb)
  | _ ->
      (* Shift: move a boundary anywhere strictly inside its gap. *)
      if len = 0 then None
      else
        let k = Sim.Prng.int prng ~bound:len in
        let lo = if k = 0 then 0 else b.(k - 1) in
        let hi = if k = len - 1 then b.(k) + virtual_gap else b.(k + 1) in
        if hi - lo < 3 then None
        else
          let nv = lo + 1 + Sim.Prng.int prng ~bound:(hi - lo - 1) in
          if nv = b.(k) then None
          else
            let nb = Array.copy b in
            nb.(k) <- nv;
            Some (Printf.sprintf "t%d: shift boundary %d from ic %d to %d" tid k b.(k) nv, fresh nb)

let base_config (log : Schedule.t) =
  let name = log.Schedule.meta.Schedule.runtime in
  match Runtime.Run.of_name name with
  | Some (Runtime.Run.Det cfg) | Some (Runtime.Run.Domains cfg) -> cfg
  | Some Runtime.Run.Pthreads ->
      invalid_arg "Explore.explore: pthreads logs have no chunk boundaries to perturb"
  | None -> invalid_arg (Printf.sprintf "Explore.explore: unknown runtime preset %S" name)

let run_variant (log : Schedule.t) cfg program ~description ~boundaries =
  let rt = Runtime.Run.Det (Runtime.Config.with_scripted_schedule cfg ~boundaries) in
  let det = Race.Detector.create () in
  let res =
    Runtime.Run.run rt ~seed:log.Schedule.meta.Schedule.seed
      ~nthreads:log.Schedule.meta.Schedule.nthreads
      ~observer:(Race.Detector.observer det) program
  in
  {
    description;
    wall_ns = res.Stats.Run_result.wall_ns;
    overflow_interrupts = res.Stats.Run_result.overflow_interrupts;
    witness = Stats.Run_result.deterministic_witness res;
    racy = Race.Detector.racy det;
    sync_ordered = Race.Detector.sync_ordered det;
  }

let distinct_by f rs =
  List.length (List.sort_uniq compare (List.map f rs))

let explore ?config ?(variants = 12) ?(seed = 7) (log : Schedule.t) (program : Api.t) =
  let cfg = match config with Some c -> c | None -> base_config log in
  let recorded = Schedule.boundaries log in
  (* Threads that never overflowed still deserve perturbation: pad the
     candidate set to the recorded thread count. *)
  let nthreads = max (Array.length recorded) log.Schedule.meta.Schedule.nthreads in
  let bounds =
    Array.init nthreads (fun i -> if i < Array.length recorded then recorded.(i) else [||])
  in
  let base = run_variant log cfg program ~description:"recorded schedule" ~boundaries:bounds in
  let prng = Sim.Prng.create ~seed in
  let out = ref [] in
  let attempts = ref 0 in
  while List.length !out < variants && !attempts < variants * 8 do
    incr attempts;
    match perturb prng bounds with
    | None -> ()
    | Some (description, boundaries) ->
        out := run_variant log cfg program ~description ~boundaries :: !out
  done;
  let vs = List.rev !out in
  let all = base :: vs in
  let distinct_witnesses = distinct_by (fun v -> v.witness) all in
  {
    base;
    variants = vs;
    distinct_timings = distinct_by (fun v -> (v.wall_ns, v.overflow_interrupts)) all;
    distinct_witnesses;
    conflicts_stable = distinct_by (fun v -> (v.racy, v.sync_ordered)) all = 1;
    deterministic = distinct_witnesses = 1;
  }

let variant_to_json v =
  let open Obs.Json in
  Obj
    [
      ("description", String v.description);
      ("wall_ns", Int v.wall_ns);
      ("overflow_interrupts", Int v.overflow_interrupts);
      ("witness", String v.witness);
      ("racy", Int v.racy);
      ("sync_ordered", Int v.sync_ordered);
    ]

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("base", variant_to_json r.base);
      ("variants", List (List.map variant_to_json r.variants));
      ("distinct_timings", Int r.distinct_timings);
      ("distinct_witnesses", Int r.distinct_witnesses);
      ("conflicts_stable", Bool r.conflicts_stable);
      ("deterministic", Bool r.deterministic);
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>explored %d variants: %d distinct timings, %d distinct witnesses, conflicts %s => %s"
    (List.length r.variants) r.distinct_timings r.distinct_witnesses
    (if r.conflicts_stable then "stable" else "UNSTABLE")
    (if r.deterministic then "deterministic" else "NONDETERMINISTIC");
  List.iter
    (fun v ->
      Format.fprintf ppf "@,  %-48s wall %d ns, %d overflows" v.description v.wall_ns
        v.overflow_interrupts)
    r.variants;
  Format.fprintf ppf "@]"

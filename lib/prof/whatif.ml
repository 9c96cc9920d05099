module Cm = Runtime.Cost_model

type row = {
  scenario : string;
  descr : string;
  wall_ns : int;
  speedup : float;
  diverged : bool;
  stream_reordered : bool;
}

type pipelined = {
  pipe_wall_ns : int;
  pipe_speedup : float;
  commit_free_wall_ns : int;
  remaining_gap : float;
  pipe_witness_ok : bool;
}

type t = {
  runtime_name : string;
  base_wall_ns : int;
  rows : row list;
  pipelined : pipelined option;
}

(* Each scenario is a pure transform of the cost model.  The recorded
   schedule is replayed under the transformed model; on a deterministic
   runtime the computation and its witnesses must be unchanged, so the
   wall-clock delta is attributable to the cost change (plus its
   legitimate second-order scheduling effects, e.g. barrier-departure
   wake order reshuffling when wakeups get cheaper — the replayer's
   stream checker flags those, but they do not invalidate the
   projection).  [diverged] is the invalidating case: the perturbed run
   produced different witnesses, so the speedup is not comparing like
   with like (expected when the recording came from [pthreads], whose
   interleaving is time-driven). *)
let scenarios : (string * string * (Cm.t -> Cm.t)) list =
  [
    ( "merge-2x",
      "page merging twice as fast",
      fun c -> { c with Cm.page_merge_ns = c.Cm.page_merge_ns / 2 } );
    ( "commit-2x",
      "commit pipeline (install+merge) twice as fast",
      fun c ->
        {
          c with
          Cm.commit_base_ns = c.Cm.commit_base_ns / 2;
          page_commit_ns = c.Cm.page_commit_ns / 2;
          page_merge_ns = c.Cm.page_merge_ns / 2;
          barrier_phase1_page_ns = c.Cm.barrier_phase1_page_ns / 2;
        } );
    ( "commit-free",
      "commits and updates cost nothing",
      fun c ->
        {
          c with
          Cm.commit_base_ns = 0;
          page_commit_ns = 0;
          page_merge_ns = 0;
          barrier_phase1_page_ns = 0;
          update_base_ns = 0;
          page_refresh_ns = 0;
          page_map_ns = 0;
        } );
    ( "token-free",
      "token handoffs and wakeups cost nothing",
      fun c -> { c with Cm.token_ns = 0; wake_ns = 0 } );
    ( "boundary-free",
      "counter reads and overflow interrupts cost nothing",
      fun c ->
        {
          c with
          Cm.counter_read_syscall_ns = 0;
          counter_read_user_ns = 0;
          overflow_interrupt_ns = 0;
        } );
    ( "fault-free",
      "write faults cost nothing",
      fun c -> { c with Cm.page_fault_ns = 0 } );
  ]

let run ?(runtime = Runtime.Run.consequence_ic) ?(seed = 1) ?nthreads program =
  let sched, base = Replay.Schedule.record runtime ~seed ?nthreads program in
  let base_wall = base.Stats.Run_result.wall_ns in
  let rows =
    List.map
      (fun (scenario, descr, f) ->
        let outcome = Replay.Replayer.replay ~costs:(f Cm.default) sched program in
        let wall = outcome.Replay.Replayer.result.Stats.Run_result.wall_ns in
        {
          scenario;
          descr;
          wall_ns = wall;
          speedup = float_of_int base_wall /. float_of_int (max 1 wall);
          diverged = not outcome.Replay.Replayer.hash_match;
          stream_reordered = outcome.Replay.Replayer.divergence <> None;
        })
      scenarios
  in
  (* The commit-free scenario is a projection: an upper bound on what any
     commit optimization could buy.  The pipelined sharded commit is the
     implemented optimization.  Measuring the latter for real and
     comparing against the former answers "how much of the commit-free
     headroom does the parallel commit actually capture, and how much is
     still on the table" — the gap that seal costs, merge work and the
     drained install necessarily keep.  It re-executes the whole
     workload once more. *)
  let pipelined =
    match runtime with
    | Runtime.Run.Det cfg when not cfg.Runtime.Config.pipelined_commit ->
        let pcfg = Runtime.Config.with_pipelined_commit cfg in
        let pr = Runtime.Run.run (Runtime.Run.Det pcfg) ~seed ?nthreads program in
        let witness (r : Stats.Run_result.t) =
          (r.Stats.Run_result.mem_hash, r.Stats.Run_result.sync_order_hash,
           r.Stats.Run_result.output_hash)
        in
        let pipe_wall = pr.Stats.Run_result.wall_ns in
        let commit_free_wall =
          match List.find_opt (fun r -> r.scenario = "commit-free") rows with
          | Some r -> r.wall_ns
          | None -> base_wall
        in
        Some
          {
            pipe_wall_ns = pipe_wall;
            pipe_speedup = float_of_int base_wall /. float_of_int (max 1 pipe_wall);
            commit_free_wall_ns = commit_free_wall;
            remaining_gap = float_of_int pipe_wall /. float_of_int (max 1 commit_free_wall);
            pipe_witness_ok = witness pr = witness base;
          }
    | _ -> None
  in
  { runtime_name = Runtime.Run.name runtime; base_wall_ns = base_wall; rows; pipelined }

let to_json t =
  Obs.Json.Obj
    ([
      ("runtime", Obs.Json.String t.runtime_name);
      ("base_wall_ns", Obs.Json.Int t.base_wall_ns);
      ( "scenarios",
        Obs.Json.List
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("scenario", Obs.Json.String r.scenario);
                   ("descr", Obs.Json.String r.descr);
                   ("wall_ns", Obs.Json.Int r.wall_ns);
                   ("speedup", Obs.Json.Float r.speedup);
                   ("diverged", Obs.Json.Bool r.diverged);
                   ("stream_reordered", Obs.Json.Bool r.stream_reordered);
                 ])
             t.rows) );
    ]
    @
    match t.pipelined with
    | None -> []
    | Some p ->
        [
          ( "pipelined",
            Obs.Json.Obj
              [
                ("wall_ns", Obs.Json.Int p.pipe_wall_ns);
                ("speedup", Obs.Json.Float p.pipe_speedup);
                ("commit_free_wall_ns", Obs.Json.Int p.commit_free_wall_ns);
                ("remaining_gap", Obs.Json.Float p.remaining_gap);
                ("witness_ok", Obs.Json.Bool p.pipe_witness_ok);
              ] );
        ])

let pp fmt t =
  Format.fprintf fmt "@[<v>what-if (replayed schedule, %s, base %dns):@," t.runtime_name
    t.base_wall_ns;
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-14s %12dns  %6.3fx  %s  (%s)@," r.scenario r.wall_ns r.speedup
        (if r.diverged then "DIVERGED"
         else if r.stream_reordered then "ok, wakes reordered"
         else "ok")
        r.descr)
    t.rows;
  (match t.pipelined with
  | None -> ()
  | Some p ->
      Format.fprintf fmt "  %-14s %12dns  %6.3fx  %s  (measured: sharded pipelined commit)@,"
        "pipelined" p.pipe_wall_ns p.pipe_speedup
        (if p.pipe_witness_ok then "ok" else "DIVERGED");
      Format.fprintf fmt
        "  remaining gap to commit-free floor: %.3fx (pipelined %dns vs projected %dns)@,"
        p.remaining_gap p.pipe_wall_ns p.commit_free_wall_ns);
  Format.fprintf fmt "@]"

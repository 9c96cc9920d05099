module Ctl = Runtime.Tune_ctl
module St = Obs.Thread_state

type applied = { epoch : int; ic : int; decision : Ctl.decision }

(* The full decision schedule, epochs [0 .. final_epoch], with exact
   milestone instruction counts. *)
let predicted (p : Ctl.params) =
  List.init
    (Ctl.final_epoch p + 1)
    (fun epoch -> { epoch; ic = Ctl.milestone p ~epoch; decision = Ctl.decide p ~epoch })

let of_events events =
  let by_tid : (int, applied list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev with
      | Runtime.Rt_event.Tune_decision
          { tid; epoch; ic; chunk_base; chunk_cap; coarsen; coarsen_floor; coarsen_cap } ->
          let a =
            {
              epoch;
              ic;
              decision =
                { Ctl.chunk_base; chunk_cap; coarsen; coarsen_floor; coarsen_cap };
            }
          in
          (match Hashtbl.find_opt by_tid tid with
          | Some r -> r := a :: !r
          | None -> Hashtbl.add by_tid tid (ref [ a ]))
      | _ -> ())
    events;
  Hashtbl.fold (fun tid r acc -> (tid, List.rev !r) :: acc) by_tid []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let is_prefix ~of_:full prefix =
  let rec go = function
    | [], _ -> true
    | _ :: _, [] -> false
    | a :: pr, b :: fr -> a = b && go (pr, fr)
  in
  go (prefix, full)

let matches_prediction (p : Ctl.params) events =
  let pred = predicted p in
  List.for_all (fun (_tid, stream) -> is_prefix ~of_:pred stream) (of_events events)

(* ------------------------------------------------------------------ *)
(* Profile-driven parameter derivation                                 *)
(* ------------------------------------------------------------------ *)

(* Map a profiler state-share summary to controller targets.  Reads the
   one shared accessor (Prof.Profile.state_share) so the numbers cannot
   drift from the report's.  The heuristics mirror the paper's cost
   trade-offs:
   - heavy token waiting => waiters are starved for clock publications:
     shrink the overflow base/cap so notification latency drops, and
     shorten coarsened holds so the token circulates;
   - heavy commit cost => commits dominate: raise the coarsening budget
     so more sync ops coalesce into one commit;
   - heavy overflow/interrupt overhead => chunks are compute-dominated:
     grow the overflow intervals.
   All pure float arithmetic on deterministic inputs. *)
let params_of_profile (p : Prof.Profile.t) : Ctl.params =
  let share st = Prof.Profile.state_share p st in
  let token_w = share St.Token_wait in
  let commit_w = share St.Commit +. share St.Commit_pipe in
  let overflow_w = share St.Overflow in
  let d = Ctl.default in
  let scale v f lo hi = max lo (min hi (int_of_float (float_of_int v *. f))) in
  (* Overflow interval targets. *)
  let chunk_f =
    if token_w > 0.25 then 0.4
    else if token_w > 0.10 then 0.7
    else if overflow_w > 0.05 then 2.5
    else if overflow_w > 0.02 then 1.5
    else 1.0
  in
  let target_base = scale d.Ctl.target_base chunk_f 500 100_000 in
  let target_cap = max target_base (scale d.Ctl.target_cap chunk_f 2_000 1_000_000) in
  (* Coarsening budget target. *)
  let coarsen_f =
    if token_w > 0.25 then 0.35
    else if commit_w > 0.20 then 2.5
    else if commit_w > 0.10 then 1.5
    else 1.0
  in
  let target_coarsen = scale d.Ctl.target_coarsen coarsen_f 20_000 4_000_000 in
  let coarsen_floor = min d.Ctl.coarsen_floor target_coarsen in
  let coarsen_cap = max target_coarsen d.Ctl.coarsen_cap in
  {
    d with
    Ctl.target_base;
    target_cap;
    target_coarsen;
    coarsen_floor;
    coarsen_cap;
    (* Warm up from the conservative defaults toward the derived
       targets over the standard horizon. *)
    warm_base = min d.Ctl.warm_base target_base;
    warm_cap = min d.Ctl.warm_cap target_cap;
    warm_coarsen = min d.Ctl.warm_coarsen target_coarsen;
  }

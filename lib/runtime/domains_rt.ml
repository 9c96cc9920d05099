(* Real-multicore execution of the deterministic runtime: the same
   Consequence algorithms (Det_rt over GMIC token, versioned
   workspaces, sharded TSO commit), driven by the work-stealing domain
   scheduler ([Sim.Sched]) instead of the DES engine.

   Determinism argument.  Every decision that reaches the witness
   (grant order, commit contents, sync labels, outputs) is a function
   of published sync-point instruction counts, which are fixed by the
   program, never of time.  A thread cannot retire instructions past
   its next sync op, so its published count never exceeds its
   deterministic sync-point count; the GMIC winner among waiters is
   therefore the same no matter how real scheduling interleaves the
   intermediate overflow publications — those change *when* grants
   happen, never their order.  Hence witnesses are byte-identical to
   the DES at any domain count (pinned across the 19-workload registry
   in test/runtime).

   Time.  [now] is wall ns since run start and [advance] is a no-op:
   modelled costs still flow into the per-thread Breakdown and the
   charged-state histograms (commit/update/commit_pipe ns), so both stay
   comparable to the DES, while every *wait* metric (determ/lock/barrier
   wait, token hold) measures real ns because the waits are real.  Real work is measured separately into the wall:*
   calibration counters (see Det_rt's wall accumulators). *)

let available_cores () = Domain.recommended_domain_count ()

(* Calibrated busy work standing in for one user instruction.  Kept
   trivially simple — the calibration bench reports the measured
   ns/instruction ratio rather than pretending this matches any
   particular CPU. *)
let spin_body n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc lxor i
  done;
  ignore (Sys.opaque_identity !acc)

let run cfg ?domains ?costs ?seed ?nthreads ?observer ?obs ?schedule (program : Api.t) =
  let workers =
    match domains with
    | Some 0 -> Sim.Par.default_jobs ()
    | Some n -> max 1 n
    | None -> Sim.Par.jobs ()
  in
  let sched = Sim.Sched.create ~workers () in
  (* CLOCK_MONOTONIC via bechamel's stub: [Exec.now] must be monotone
     (Det_rt subtracts readings for wait/hold metrics), which
     [Unix.gettimeofday] is not — an NTP step would yield negative or
     inflated wall:* intervals. *)
  let t0 = Monotonic_clock.now () in
  let wall_now () = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  let prng = Sim.Prng.create ~seed:(Option.value seed ~default:1) in
  let spin n =
    (* Release the runtime lock while the chunk's instructions execute:
       this is the window where domains genuinely run in parallel. *)
    Sim.Sched.unlock sched;
    spin_body n;
    Sim.Sched.lock sched
  in
  let ex =
    {
      Sim.Exec.now = wall_now;
      advance = (fun _ -> ());
      block = (fun ~reason -> Sim.Sched.block sched ~reason);
      wakeup = (fun tid -> Sim.Sched.wakeup sched tid);
      spawn = (fun ~name f -> Sim.Sched.spawn sched ~name f);
      prng;
      real = true;
      spin;
      lock = (fun () -> Sim.Sched.lock sched);
      unlock = (fun () -> Sim.Sched.unlock sched);
    }
  in
  (* Report the Run-level preset name ("<cfg>-domains", as in
     [Run.name]) so run results and recorded schedules are attributed
     to this backend and resolve back through [Run.of_name] — the
     replayer then re-executes them on the scripted DES. *)
  let cfg = Config.with_name cfg (cfg.Config.name ^ "-domains") in
  Det_rt.run_exec cfg ~ex
    ~start:(fun () -> Sim.Sched.run sched)
    ?costs ?seed ?nthreads ?observer ?obs ?schedule program

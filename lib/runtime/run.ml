type runtime = Pthreads | Det of Config.t | Domains of Config.t

let name = function
  | Pthreads -> Pthreads_rt.name
  | Det cfg -> cfg.Config.name
  | Domains cfg -> cfg.Config.name ^ "-domains"

let pthreads = Pthreads
let dthreads = Det Config.dthreads
let dwc = Det Config.dwc
let consequence_rr = Det Config.consequence_rr
let consequence_ic = Det Config.consequence_ic
let consequence_pipe = Det Config.consequence_pipe
let domains = Domains Config.consequence_ic

(* [all] deliberately excludes [Domains]: its wall_ns is real time, so
   it cannot satisfy the cross-run reproducibility the DES runtimes are
   held to (witnesses still match — see test/runtime).  It also excludes
   [consequence_pipe], which is witness-identical to [consequence_ic]
   (only cost placement moves) and would double-count it in the
   four-library figure sweeps. *)
let all = [ pthreads; dthreads; dwc; consequence_rr; consequence_ic ]

(* Name resolution must cover everything recordable, not just [all]:
   schedules recorded under "consequence-ic-domains" are replayed (on
   the DES) by looking their preset up by name, and "consequence-pipe"
   runs must resolve the same way. *)
let resolvable = all @ [ consequence_pipe; domains ]
let of_name n = List.find_opt (fun rt -> String.equal (name rt) n) resolvable
let names = List.map name resolvable

let deterministic = function
  | Pthreads -> false
  | Det cfg | Domains cfg -> cfg.Config.counter_jitter_ppm = 0

let run rt ?costs ?seed ?nthreads ?observer ?obs ?schedule program =
  match rt with
  | Pthreads -> Pthreads_rt.run ?costs ?seed ?nthreads ?observer ?obs ?schedule program
  | Det cfg -> Det_rt.run cfg ?costs ?seed ?nthreads ?observer ?obs ?schedule program
  | Domains cfg -> Domains_rt.run cfg ?costs ?seed ?nthreads ?observer ?obs ?schedule program

let best_over_threads rt ?costs ?seed ~threads program =
  match threads with
  | [] -> invalid_arg "Run.best_over_threads: empty thread list"
  | first :: rest ->
      List.fold_left
        (fun best n ->
          let r = run rt ?costs ?seed ~nthreads:n program in
          if r.Stats.Run_result.wall_ns < best.Stats.Run_result.wall_ns then r else best)
        (run rt ?costs ?seed ~nthreads:first program)
        rest

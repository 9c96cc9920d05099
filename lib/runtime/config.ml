type ordering = Round_robin | Instruction_count
type lock_granularity = Single_global | Per_lock
type coarsening = No_coarsening | Static of int | Adaptive
type isolation = Versioned | Mprotect
type scheduling = Emergent | Scripted of int array array

type t = {
  name : string;
  ordering : ordering;
  lock_granularity : lock_granularity;
  isolation : isolation;
  coarsening : coarsening;
  adaptive_overflow : bool;
  userspace_reads : bool;
  fast_forward : bool;
  parallel_barrier : bool;
  thread_pool : bool;
  chunk_limit : int option;
  polling_locks : int option;
  counter_jitter_ppm : int;
  pipelined_commit : bool;
  scheduling : scheduling;
  tune : Tune_ctl.params option;
}

let base =
  {
    name = "base";
    ordering = Instruction_count;
    lock_granularity = Per_lock;
    isolation = Versioned;
    coarsening = Adaptive;
    adaptive_overflow = true;
    userspace_reads = true;
    fast_forward = true;
    parallel_barrier = true;
    thread_pool = true;
    chunk_limit = None;
    polling_locks = None;
    counter_jitter_ppm = 0;
    pipelined_commit = false;
    scheduling = Emergent;
    tune = None;
  }

let consequence_ic = { base with name = "consequence-ic" }
let consequence_rr = { base with name = "consequence-rr"; ordering = Round_robin }

let dwc =
  {
    base with
    name = "dwc";
    ordering = Round_robin;
    lock_granularity = Single_global;
    coarsening = No_coarsening;
    adaptive_overflow = false;
    userspace_reads = false;
    fast_forward = false;
    parallel_barrier = false;
    thread_pool = false;
  }

let dthreads = { dwc with name = "dthreads"; isolation = Mprotect }

(* The scaled commit path of this repro's parallel-commit work: sealed
   write-sets published under the token with the install/merge charged
   after the release, page-range-sharded installs, and the incremental
   per-shard collector.  Witness-identical to consequence_ic (only cost
   placement moves); kept out of {!presets} so the four-library figure
   sweeps are unchanged. *)
let consequence_pipe = { base with name = "consequence-pipe"; pipelined_commit = true }

let presets = [ dthreads; dwc; consequence_rr; consequence_ic ]

let with_name t name = { t with name }
let without_coarsening t = { t with name = t.name ^ "-nocoarsen"; coarsening = No_coarsening }

let with_static_coarsening t k =
  { t with name = Printf.sprintf "%s-static%d" t.name k; coarsening = Static k }

let without_adaptive_overflow t =
  { t with name = t.name ^ "-nooverflow"; adaptive_overflow = false }

let without_userspace_reads t = { t with name = t.name ^ "-nouserread"; userspace_reads = false }
let without_fast_forward t = { t with name = t.name ^ "-noff"; fast_forward = false }

let without_parallel_barrier t =
  { t with name = t.name ^ "-nopbarrier"; parallel_barrier = false }

let without_thread_pool t = { t with name = t.name ^ "-nopool"; thread_pool = false }
let with_chunk_limit t n = { t with name = Printf.sprintf "%s-climit%d" t.name n; chunk_limit = Some n }

let with_polling_locks t ~increment =
  { t with name = Printf.sprintf "%s-poll%d" t.name increment; polling_locks = Some increment }
let with_counter_jitter t ~ppm = { t with name = t.name ^ "-cjitter"; counter_jitter_ppm = ppm }

let with_pipelined_commit t = { t with name = t.name ^ "-pipe"; pipelined_commit = true }

let with_scripted_schedule t ~boundaries =
  { t with name = t.name ^ "-replay"; scheduling = Scripted boundaries }

let scripted t = match t.scheduling with Scripted _ -> true | Emergent -> false

let with_adaptive_tuning ?(params = Tune_ctl.default) t =
  Tune_ctl.validate params;
  { t with name = t.name ^ "-tuned"; tune = Some params }

let tuned t = match t.tune with Some _ -> true | None -> false

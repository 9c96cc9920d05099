type verdict = {
  test_name : string;
  runtime : string;
  observed : Model.Outcome_set.t;
  allowed_tso : Model.Outcome_set.t;
  allowed_sc : Model.Outcome_set.t;
  tso_ok : bool;
  sc_ok : bool;
  beyond_sc : bool;
}

let scratch_addr = 0
let var_addr test v =
  let vs = Litmus.vars test in
  let rec index i = function
    | [] -> invalid_arg ("Checker: unknown var " ^ v)
    | x :: rest -> if x = v then i else index (i + 1) rest
  in
  64 + (64 * index 0 vs)

(* Compile a litmus test to an [Api] program.  The returned thunk reads
   the final register values; call it after the run completes.
   [paddings] prepends [Delay] instructions per thread.  The threads
   rendezvous at a barrier first so their bodies genuinely overlap. *)
let to_program ?(paddings = []) (test : Litmus.t) =
  let results : (Litmus.reg * int) list ref = ref [] in
  let nthreads = List.length test.Litmus.threads in
  let program =
    Api.make
      ~name:(Printf.sprintf "litmus-%s" test.Litmus.name)
      ~heap_pages:64 ~page_size:64 ~default_threads:nthreads
      (fun ~nthreads:_ ops ->
        results := [];
        ops.Api.barrier_init 0 nthreads;
        let run_thread body (w : Api.ops) =
          List.iter
            (fun instr ->
              match instr with
              | Litmus.Delay n -> w.Api.work n
              | Litmus.Store (v, n) ->
                  w.Api.work 50;
                  w.Api.write_int ~addr:(var_addr test v) n
              | Litmus.Load (v, r) ->
                  w.Api.work 50;
                  let value = w.Api.read_int ~addr:(var_addr test v) in
                  results := (r, value) :: !results
              | Litmus.Fence ->
                  (* A commit+update: the runtime's memory fence. *)
                  ignore (w.Api.atomic_fetch_add ~addr:scratch_addr 0))
            body
        in
        let handles =
          List.mapi
            (fun i body ->
              let padding = match List.nth_opt paddings i with Some p -> p | None -> 0 in
              ops.Api.spawn
                ~name:(Printf.sprintf "litmus-t%d" i)
                (fun w ->
                  w.Api.barrier_wait 0;
                  if padding > 0 then w.Api.work padding;
                  run_thread body w))
            test.Litmus.threads
        in
        List.iter ops.Api.join handles)
  in
  (program, fun () -> List.sort compare !results)

let observe rt ?paddings ?(seed = 1) test =
  let program, read_outcome = to_program ?paddings test in
  ignore (Runtime.Run.run rt ~seed program);
  read_outcome ()

let default_paddings ~nthreads =
  (* Delay vectors chosen to flip arrival and GMIC orders. *)
  let levels = [ 0; 900; 2_700 ] in
  match nthreads with
  | 1 -> List.map (fun a -> [ a ]) levels
  | 2 -> List.concat_map (fun a -> List.map (fun b -> [ a; b ]) levels) levels
  | _ ->
      (* Rotate a single large delay through the threads, plus uniform. *)
      List.init nthreads (fun hot -> List.init nthreads (fun i -> if i = hot then 2_700 else 0))
      @ [ List.init nthreads (fun _ -> 0); List.init nthreads (fun i -> 700 * i) ]

let run_test rt ?paddings ?(seeds = [ 1; 2; 3 ]) test =
  let nthreads = List.length test.Litmus.threads in
  let paddings = match paddings with Some p -> p | None -> default_paddings ~nthreads in
  let observed =
    List.fold_left
      (fun acc padding ->
        List.fold_left
          (fun acc seed -> Model.Outcome_set.add (observe rt ~paddings:padding ~seed test) acc)
          acc seeds)
      Model.Outcome_set.empty paddings
  in
  let allowed_tso = Model.tso_outcomes test in
  let allowed_sc = Model.sc_outcomes test in
  {
    test_name = test.Litmus.name;
    runtime = Runtime.Run.name rt;
    observed;
    allowed_tso;
    allowed_sc;
    tso_ok = Model.Outcome_set.subset observed allowed_tso;
    sc_ok = Model.Outcome_set.subset observed allowed_sc;
    beyond_sc = not (Model.Outcome_set.subset observed allowed_sc);
  }

let pp_verdict fmt v =
  Format.fprintf fmt "@[<v>%s on %s: %d observed / %d TSO-allowed / %d SC-allowed — %s@]"
    v.test_name v.runtime
    (Model.Outcome_set.cardinal v.observed)
    (Model.Outcome_set.cardinal v.allowed_tso)
    (Model.Outcome_set.cardinal v.allowed_sc)
    (if not v.tso_ok then "TSO VIOLATION"
     else if v.beyond_sc then "TSO-consistent (store buffering observed)"
     else "TSO-consistent (within SC)")

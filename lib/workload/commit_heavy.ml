(* Commit-dominated scaling microbenchmark for the parallel-commit path.

   Worker [i] owns the strided page set {k*stride + i | k}: contiguous
   bands would land every worker's footprint in one or two segment
   shards, so the stride is what makes a single commit span all shards
   (pages i, stride+i, 2*stride+i, ... fall in different contiguous
   page ranges).  Footprints are disjoint across workers — commits never
   merge — and each worker's per-commit page count is constant in the
   thread count, so "commit cost per committed page vs threads" isolates
   the commit path itself: flat means commits scale, growth means the
   token hold serializes them. *)

let stride = 256
let default_pages = 4096
let page_size = 256

let rounds = 8

let make () =
  Api.make ~name:"commit-heavy"
    ~description:"disjoint strided writes, shard-spanning commits (parallel-commit stressor)"
    ~heap_pages:default_pages ~page_size
    (fun ~nthreads ops ->
      let nthreads = min nthreads stride in
      let pages_per_commit = default_pages / stride in
      Wl_util.spawn_workers ops ~n:nthreads (fun i w ->
          for round = 1 to rounds do
            (* Dirty every page of the strided set, one word each. *)
            for k = 0 to pages_per_commit - 1 do
              let page = (k * stride) + i in
              w.Api.write_int ~addr:(page * page_size) (round + (i * 1000) + k)
            done;
            (* Local work between commits: the execution the pipelined
               drain is supposed to overlap with. *)
            w.Api.work 2_000;
            (* Uncontended per-worker lock: a pure coordination point
               that publishes the round's writes as one commit. *)
            w.Api.lock (100 + i);
            w.Api.unlock (100 + i)
          done);
      (* Witness: one word from stride row 0 of every worker slot. *)
      let sum = ref 0 in
      for i = 0 to nthreads - 1 do
        sum := !sum + ops.Api.read_int ~addr:(i * page_size)
      done;
      ops.Api.log_output (Printf.sprintf "commit-heavy=%d" !sum))

type style = Racy | Atomic | Locked

let style_name = function Racy -> "racy" | Atomic -> "atomic" | Locked -> "locked"

let accounts = 8
let account_addr i = 8 * i
let initial_balance = 1_000
let rounds = 25

let make style =
  Api.make
    ~name:("bank-" ^ style_name style)
    ~description:"money transfers: unsynchronized / atomic / mutex-serialized RMW"
    ~heap_pages:16 ~page_size:256
    (fun ~nthreads ops ->
      for i = 0 to accounts - 1 do
        ops.Api.write_int ~addr:(account_addr i) initial_balance
      done;
      ops.Api.barrier_init 0 nthreads;
      let workers =
        List.init nthreads (fun i ->
            ops.Api.spawn (fun w ->
                w.Api.barrier_wait 0;
                for round = 1 to rounds do
                  let src = (i + round) mod accounts in
                  let dst = (i + (3 * round)) mod accounts in
                  if src <> dst then
                    match style with
                    | Atomic ->
                        ignore (w.Api.atomic_fetch_add ~addr:(account_addr src) (-10));
                        ignore (w.Api.atomic_fetch_add ~addr:(account_addr dst) 10)
                    | Racy | Locked ->
                        if style = Locked then w.Api.lock 0;
                        (* read ... compute ... write: the racy window *)
                        let s = w.Api.read_int ~addr:(account_addr src) in
                        w.Api.work (100 + i);
                        w.Api.write_int ~addr:(account_addr src) (s - 10);
                        let d = w.Api.read_int ~addr:(account_addr dst) in
                        w.Api.work 80;
                        w.Api.write_int ~addr:(account_addr dst) (d + 10);
                        if style = Locked then w.Api.unlock 0
                done))
      in
      List.iter ops.Api.join workers;
      let total = ref 0 in
      for i = 0 to accounts - 1 do
        total := !total + ops.Api.read_int ~addr:(account_addr i)
      done;
      ops.Api.log_output (Printf.sprintf "total=%d" !total))

let racy = make Racy
let atomic = make Atomic
let locked = make Locked

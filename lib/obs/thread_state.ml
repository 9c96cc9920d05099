type t =
  | Run
  | Token_wait
  | Lock_wait
  | Barrier_wait
  | Commit
  | Update
  | Fault
  | Overflow
  | Runtime
  | Fork
  | Gc
  | Commit_pipe
  | Txn_validate
  | Txn_abort

let all =
  [
    Run; Token_wait; Lock_wait; Barrier_wait; Commit; Update; Fault; Overflow; Runtime; Fork;
    Gc; Commit_pipe; Txn_validate; Txn_abort;
  ]

let n = List.length all

external index : t -> int = "%identity"

let of_index = function
  | 0 -> Run
  | 1 -> Token_wait
  | 2 -> Lock_wait
  | 3 -> Barrier_wait
  | 4 -> Commit
  | 5 -> Update
  | 6 -> Fault
  | 7 -> Overflow
  | 8 -> Runtime
  | 9 -> Fork
  | 10 -> Gc
  | 11 -> Commit_pipe
  | 12 -> Txn_validate
  | 13 -> Txn_abort
  | i -> invalid_arg (Printf.sprintf "Thread_state.of_index %d" i)

let name = function
  | Run -> "run"
  | Token_wait -> "token_wait"
  | Lock_wait -> "lock_wait"
  | Barrier_wait -> "barrier_wait"
  | Commit -> "commit"
  | Update -> "update"
  | Fault -> "fault"
  | Overflow -> "overflow"
  | Runtime -> "runtime"
  | Fork -> "fork"
  | Gc -> "gc"
  | Commit_pipe -> "commit_pipe"
  | Txn_validate -> "txn_validate"
  | Txn_abort -> "txn_abort"

let is_wait = function Token_wait | Lock_wait | Barrier_wait -> true | _ -> false

type interval = {
  stid : int;
  state : t;
  t0 : int;
  t1 : int;
  chunk : int;
  waker : int;
}

let duration iv = iv.t1 - iv.t0

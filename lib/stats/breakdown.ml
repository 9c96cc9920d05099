type category =
  | Chunk
  | Determ_wait
  | Barrier_wait
  | Lock_wait
  | Page_fault
  | Commit
  | Update
  | Library
  | Fork

let all =
  [ Chunk; Determ_wait; Barrier_wait; Lock_wait; Page_fault; Commit; Update; Library; Fork ]

let index = function
  | Chunk -> 0
  | Determ_wait -> 1
  | Barrier_wait -> 2
  | Lock_wait -> 3
  | Page_fault -> 4
  | Commit -> 5
  | Update -> 6
  | Library -> 7
  | Fork -> 8

(* The one state -> category map: every runtime charges time in a
   profiler state, and the breakdown category is derived here. *)
let of_state = function
  | Obs.Thread_state.Run -> Chunk
  | Token_wait -> Determ_wait
  | Lock_wait -> Lock_wait
  | Barrier_wait -> Barrier_wait
  | Commit | Commit_pipe -> Commit
  | Update -> Update
  | Fault -> Page_fault
  | Overflow | Runtime | Gc | Txn_validate | Txn_abort -> Library
  | Fork -> Fork

let category_name = function
  | Chunk -> "chunk"
  | Determ_wait -> "determ_wait"
  | Barrier_wait -> "barrier_wait"
  | Lock_wait -> "lock_wait"
  | Page_fault -> "page_fault"
  | Commit -> "commit"
  | Update -> "update"
  | Library -> "library"
  | Fork -> "fork"

type t = int array

let ncat = List.length all
let create () = Array.make ncat 0

let add t cat ns =
  if ns < 0 then invalid_arg "Breakdown.add: negative duration";
  let i = index cat in
  t.(i) <- t.(i) + ns

let get t cat = t.(index cat)
let total t = Array.fold_left ( + ) 0 t

let merge a b = Array.init ncat (fun i -> a.(i) + b.(i))

let fractions t =
  let sum = total t in
  List.map
    (fun cat -> (cat, if sum = 0 then 0.0 else float_of_int (get t cat) /. float_of_int sum))
    all

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun cat ->
      let v = get t cat in
      if v > 0 then Format.fprintf fmt "%-13s %12d ns@," (category_name cat) v)
    all;
  Format.fprintf fmt "@]"

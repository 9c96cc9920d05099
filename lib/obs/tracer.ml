type t = {
  mutable spans_rev : Span.t list;
  mutable instants_rev : Span.instant list;
  mutable nspans : int;
  mutable ninstants : int;
  states : Interval_log.t;
}

let create () =
  { spans_rev = []; instants_rev = []; nspans = 0; ninstants = 0; states = Interval_log.create () }

let sink t =
  {
    Sink.span =
      (fun s ->
        t.spans_rev <- s :: t.spans_rev;
        t.nspans <- t.nspans + 1);
    instant =
      (fun i ->
        t.instants_rev <- i :: t.instants_rev;
        t.ninstants <- t.ninstants + 1);
    state = Interval_log.push t.states;
  }

let spans t = List.rev t.spans_rev
let instants t = List.rev t.instants_rev
let states t = Interval_log.to_list (Interval_log.view t.states)
let iter_states f t = Interval_log.iter f (Interval_log.view t.states)
let span_count t = t.nspans
let instant_count t = t.ninstants
let state_count t = Interval_log.length t.states

let tids t =
  let module S = Set.Make (Int) in
  let s =
    List.fold_left (fun acc (sp : Span.t) -> S.add sp.Span.tid acc) S.empty t.spans_rev
  in
  let s =
    ref (List.fold_left (fun acc (i : Span.instant) -> S.add i.Span.itid acc) s t.instants_rev)
  in
  Interval_log.iter
    (fun (iv : Thread_state.interval) -> s := S.add iv.Thread_state.stid !s)
    (Interval_log.view t.states);
  S.elements !s

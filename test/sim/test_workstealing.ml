(* Tests for the real-parallel task layer: the Chase–Lev deque (Wsq),
   the Michael–Scott injection queue (Mpmc) and the work-stealing
   green-thread scheduler (Sched).  The qcheck properties run real
   Domain.spawn racers, so they exercise the lock-free paths under
   genuine (if modest) parallelism. *)

let check_int = Alcotest.(check int)
let sorted l = List.sort compare l

(* ------------------------------------------------------------------ *)
(* Wsq: directed                                                       *)
(* ------------------------------------------------------------------ *)

let test_wsq_lifo_owner () =
  let q = Sim.Wsq.create () in
  List.iter (Sim.Wsq.push q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop newest" (Some 3) (Sim.Wsq.pop q);
  Alcotest.(check (option int)) "then 2" (Some 2) (Sim.Wsq.pop q);
  Sim.Wsq.push q 4;
  Alcotest.(check (option int)) "then 4" (Some 4) (Sim.Wsq.pop q);
  Alcotest.(check (option int)) "then 1" (Some 1) (Sim.Wsq.pop q);
  Alcotest.(check (option int)) "empty" None (Sim.Wsq.pop q)

let test_wsq_fifo_thief () =
  let q = Sim.Wsq.create () in
  List.iter (Sim.Wsq.push q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Sim.Wsq.steal q);
  Alcotest.(check (option int)) "then 2" (Some 2) (Sim.Wsq.steal q);
  Alcotest.(check (option int)) "then 3" (Some 3) (Sim.Wsq.steal q);
  Alcotest.(check (option int)) "empty" None (Sim.Wsq.steal q)

let test_wsq_grows () =
  let q = Sim.Wsq.create () in
  let n = 10_000 in
  for i = 1 to n do
    Sim.Wsq.push q i
  done;
  check_int "size" n (Sim.Wsq.size q);
  let seen = ref 0 in
  let rec drain () =
    match Sim.Wsq.pop q with
    | Some _ ->
        incr seen;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "drained all" n !seen

(* ------------------------------------------------------------------ *)
(* Wsq: owner/thief exactly-once under real domains                    *)
(* ------------------------------------------------------------------ *)

let prop_wsq_exactly_once =
  QCheck.Test.make ~name:"wsq delivers each element exactly once (owner + 2 thieves)"
    ~count:30
    QCheck.(pair (list_of_size Gen.(int_range 0 400) (int_bound 100_000)) (int_bound 2))
    (fun (items, pop_stride) ->
      let q = Sim.Wsq.create () in
      let done_pushing = Atomic.make false in
      let thief () =
        let got = ref [] in
        (* Keep stealing until the owner is finished AND the deque has
           drained: after that point nothing can reappear. *)
        let rec go () =
          match Sim.Wsq.steal q with
          | Some v ->
              got := v :: !got;
              go ()
          | None -> if Atomic.get done_pushing then !got else (Domain.cpu_relax (); go ())
        in
        go ()
      in
      let thieves = [ Domain.spawn thief; Domain.spawn thief ] in
      let owner_got = ref [] in
      List.iteri
        (fun i v ->
          Sim.Wsq.push q v;
          (* Interleave owner pops with pushes to hit the bottom/top
             CAS race on the last element. *)
          if pop_stride > 0 && i mod (pop_stride + 1) = 0 then
            match Sim.Wsq.pop q with
            | Some v -> owner_got := v :: !owner_got
            | None -> ())
        items;
      let rec drain () =
        match Sim.Wsq.pop q with
        | Some v ->
            owner_got := v :: !owner_got;
            drain ()
        | None -> ()
      in
      drain ();
      Atomic.set done_pushing true;
      let stolen = List.concat_map Domain.join thieves in
      sorted (stolen @ !owner_got) = sorted items)

(* ------------------------------------------------------------------ *)
(* Mpmc                                                                *)
(* ------------------------------------------------------------------ *)

let test_mpmc_fifo_single () =
  let q = Sim.Mpmc.create () in
  Alcotest.(check bool) "starts empty" true (Sim.Mpmc.is_empty q);
  List.iter (Sim.Mpmc.push q) [ 1; 2; 3 ];
  Alcotest.(check bool) "non-empty" false (Sim.Mpmc.is_empty q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Sim.Mpmc.pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Sim.Mpmc.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Sim.Mpmc.pop q);
  Alcotest.(check (option int)) "empty" None (Sim.Mpmc.pop q)

let prop_mpmc_counts =
  QCheck.Test.make
    ~name:"mpmc delivers the pushed multiset exactly once (P producers, C consumers)"
    ~count:30
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 0 300))
    (fun (producers, consumers, per_producer) ->
      let q = Sim.Mpmc.create () in
      let total = producers * per_producer in
      let remaining = Atomic.make total in
      let producer p () =
        for i = 0 to per_producer - 1 do
          Sim.Mpmc.push q ((p * 1_000_000) + i)
        done
      in
      let consumer () =
        let got = ref [] in
        let rec go () =
          if Atomic.get remaining = 0 then !got
          else
            match Sim.Mpmc.pop q with
            | Some v ->
                Atomic.decr remaining;
                got := v :: !got;
                go ()
            | None ->
                Domain.cpu_relax ();
                go ()
        in
        go ()
      in
      let cs = List.init consumers (fun _ -> Domain.spawn consumer) in
      let ps = List.init producers (fun p -> Domain.spawn (producer p)) in
      List.iter Domain.join ps;
      let popped = List.concat_map Domain.join cs in
      let pushed =
        List.concat (List.init producers (fun p ->
            List.init per_producer (fun i -> (p * 1_000_000) + i)))
      in
      sorted popped = sorted pushed)

(* ------------------------------------------------------------------ *)
(* Sched: directed                                                     *)
(* ------------------------------------------------------------------ *)

let test_sched_runs_all_greens () =
  List.iter
    (fun workers ->
      let s = Sim.Sched.create ~workers () in
      let n = 50 in
      let ran = Array.make n 0 in
      for i = 0 to n - 1 do
        (* Green bodies hold the GRL, so the plain array write is safe. *)
        ignore (Sim.Sched.spawn s ~name:(Printf.sprintf "g%d" i) (fun () ->
            ran.(i) <- ran.(i) + 1))
      done;
      Sim.Sched.run s;
      Array.iteri
        (fun i c -> check_int (Printf.sprintf "workers=%d green %d ran once" workers i) 1 c)
        ran)
    [ 1; 2; 4 ]

let test_sched_block_wakeup () =
  let s = Sim.Sched.create ~workers:2 () in
  let order = ref [] in
  let blocker =
    Sim.Sched.spawn s ~name:"blocker" (fun () ->
        order := "pre" :: !order;
        Sim.Sched.block s ~reason:"test";
        order := "post" :: !order)
  in
  ignore
    (Sim.Sched.spawn s ~name:"waker" (fun () ->
         order := "wake" :: !order;
         Sim.Sched.wakeup s blocker));
  Sim.Sched.run s;
  Alcotest.(check (list string)) "blocker resumed after wake"
    [ "pre"; "wake"; "post" ] (List.rev !order)

let test_sched_pending_permit () =
  (* A wakeup delivered while the green is running leaves a permit that
     the next block consumes without suspending. *)
  let s = Sim.Sched.create ~workers:1 () in
  let g =
    Sim.Sched.spawn s ~name:"self" (fun () ->
        (* Green ids are sequential from 0 and this is the first spawn. *)
        Sim.Sched.wakeup s 0;
        Sim.Sched.block s ~reason:"should not suspend")
  in
  check_int "first green id" 0 g;
  Sim.Sched.run s

let test_sched_spawn_from_green () =
  let s = Sim.Sched.create ~workers:2 () in
  let hits = Atomic.make 0 in
  ignore
    (Sim.Sched.spawn s ~name:"parent" (fun () ->
         for _ = 1 to 10 do
           ignore (Sim.Sched.spawn s ~name:"child" (fun () -> Atomic.incr hits))
         done));
  Sim.Sched.run s;
  check_int "all children ran" 10 (Atomic.get hits)

let test_sched_exception_propagates () =
  let s = Sim.Sched.create ~workers:2 () in
  ignore (Sim.Sched.spawn s ~name:"ok" (fun () -> ()));
  ignore (Sim.Sched.spawn s ~name:"boom" (fun () -> failwith "boom"));
  match Sim.Sched.run s with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

let test_sched_deadlock_detection () =
  let s = Sim.Sched.create ~workers:2 () in
  ignore (Sim.Sched.spawn s ~name:"stuck" (fun () -> Sim.Sched.block s ~reason:"forever"));
  match Sim.Sched.run s with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the green" true (contains msg "stuck")

(* ------------------------------------------------------------------ *)
(* Par-vs-deque equivalence on fan-out jobs                           *)
(* ------------------------------------------------------------------ *)

let prop_par_vs_sched_equivalence =
  QCheck.Test.make
    ~name:"Par.map_list and a Sched fan-out agree with the sequential map" ~count:20
    QCheck.(list_of_size Gen.(int_range 0 60) (int_bound 10_000))
    (fun inputs ->
      let f x = (x * x) + (x lsr 3) in
      let expected = List.map f inputs in
      let saved = Sim.Par.jobs () in
      Sim.Par.set_jobs 2;
      let via_par = Sim.Par.map_list f inputs in
      Sim.Par.set_jobs saved;
      let via_sched =
        let s = Sim.Sched.create ~workers:2 () in
        let out = Array.make (List.length inputs) 0 in
        List.iteri
          (fun i x ->
            ignore (Sim.Sched.spawn s ~name:(Printf.sprintf "job%d" i) (fun () ->
                out.(i) <- f x)))
          inputs;
        Sim.Sched.run s;
        Array.to_list out
      in
      via_par = expected && via_sched = expected)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "workstealing"
    [
      ( "wsq",
        [
          Alcotest.test_case "owner LIFO" `Quick test_wsq_lifo_owner;
          Alcotest.test_case "thief FIFO" `Quick test_wsq_fifo_thief;
          Alcotest.test_case "grows past initial capacity" `Quick test_wsq_grows;
          QCheck_alcotest.to_alcotest prop_wsq_exactly_once;
        ] );
      ( "mpmc",
        [
          Alcotest.test_case "fifo single domain" `Quick test_mpmc_fifo_single;
          QCheck_alcotest.to_alcotest prop_mpmc_counts;
        ] );
      ( "sched",
        [
          Alcotest.test_case "runs all greens at 1/2/4 workers" `Quick
            test_sched_runs_all_greens;
          Alcotest.test_case "block/wakeup" `Quick test_sched_block_wakeup;
          Alcotest.test_case "pending wakeup permit" `Quick test_sched_pending_permit;
          Alcotest.test_case "spawn from green" `Quick test_sched_spawn_from_green;
          Alcotest.test_case "exception propagates" `Quick test_sched_exception_propagates;
          Alcotest.test_case "deadlock detection" `Quick test_sched_deadlock_detection;
          QCheck_alcotest.to_alcotest prop_par_vs_sched_equivalence;
        ] );
    ]

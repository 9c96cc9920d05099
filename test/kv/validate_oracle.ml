(* The previous [Kv.Validate.fold], kept verbatim as the oracle for the
   wire-format arbitration: decoded intent lists in, a fresh
   written-key array per round, and verdicts for every thread (batch
   order, [true] = commit).  The priority rotation is the library's. *)

open Kv

let tid_of_priority = Validate.tid_of_priority

(* [fold ~round ~nthreads intents] where [intents.(tid)] is that
   thread's decoded round intents; returns [verdicts.(tid)] as a bool
   array per thread, batch order, [true] = commit. *)
let fold ~round ~nthreads (intents : Intent.txn_intent list array) =
  let written = Array.make Layout.n_keys false in
  let verdicts = Array.map (fun l -> Array.make (List.length l) false) intents in
  for p = 0 to nthreads - 1 do
    let tid = tid_of_priority ~round ~nthreads p in
    List.iteri
      (fun bi (t : Intent.txn_intent) ->
        let conflict =
          List.exists
            (fun (r : Intent.read_entry) ->
              let hit = ref false in
              for k = r.key to r.key + r.len - 1 do
                if written.(k) then hit := true
              done;
              !hit)
            t.reads
          || List.exists (fun k -> written.(k)) t.writes
        in
        if not conflict then begin
          List.iter (fun k -> written.(k) <- true) t.writes;
          verdicts.(tid).(bi) <- true
        end)
      intents.(tid)
  done;
  verdicts

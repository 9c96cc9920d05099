type kind = Update | Snapshot

type t = {
  seq : int;
  kind : kind;
  reads : (int * int) list;
  writes : int list;
}

let max_reads = 8
let max_writes = 8
let entries t = List.length t.reads + List.length t.writes

let check t =
  if List.length t.reads > max_reads then invalid_arg "Kv.Txn: too many read ranges";
  if List.length t.writes > max_writes then invalid_arg "Kv.Txn: too many write keys";
  List.iter
    (fun (k, len) ->
      if len <= 0 || k < 0 || k + len > Layout.n_keys then
        invalid_arg (Printf.sprintf "Kv.Txn: read range [%d, %d) out of keyspace" k (k + len)))
    t.reads;
  List.iter
    (fun k ->
      if k < 0 || k >= Layout.n_keys then invalid_arg (Printf.sprintf "Kv.Txn: write key %d" k))
    t.writes;
  let rec dup = function [] -> false | k :: rest -> List.mem k rest || dup rest in
  if dup t.writes then invalid_arg "Kv.Txn: duplicate write key";
  if t.kind = Snapshot && t.writes <> [] then invalid_arg "Kv.Txn: snapshot txn with writes"

(* The update semantics: every write key's new value depends on the sum
   over the read set, so a serialization error (reading state a serial
   execution would not produce) changes bytes downstream — exactly what
   the serializability oracle checks. *)
let new_value ~old ~read_sum ~seq ~nth = old + read_sum + (seq * 31) + nth

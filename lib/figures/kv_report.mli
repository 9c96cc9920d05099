(** Transactional KV service report ([BENCH_kv.json]): throughput and
    p50/p99/p999 request latency for the six server-shaped traffic mixes
    of {!Kv.Service} under consequence-ic at seeds 1 and 7, plus the
    cross-seed determinism claims (witnesses and abort counts
    byte-identical). *)

val run : ?threads:int -> unit -> Fig_output.t

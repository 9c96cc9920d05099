(** PARSEC [ferret]: the 4-stage image-similarity pipeline.

    The first stage (one thread, named ["ferret-seg"]) performs a high
    volume of lock operations with very short chunks, while the later
    stages alternate long compute chunks with condition-variable waits —
    the bimodal behaviour the paper splits into ferret_1 / ferret_n in
    Fig 15.  Good performance requires both GMIC ordering (so the
    fast-syncing stage-1 thread is not throttled by round-robin turns)
    and adaptive coarsening (to amortize its coordination phases) —
    ferret is the paper's flagship for both (Fig 13, Fig 14). *)

val make : ?scale:float -> unit -> Api.t

val stage1_name : string
(** Thread name of the first pipeline stage ("ferret_1" in Fig 15). *)

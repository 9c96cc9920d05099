(** Deterministic fan-out of independent simulations over OCaml domains.

    Figure sweeps are bags of independent, self-contained deterministic
    runs: each run builds all of its own state, so runs can execute on
    any domain in any order.  The combinators here preserve {e input
    order} when gathering results, so the assembled figure data — and
    every byte of the rendered output — is identical to a sequential
    run regardless of the worker count or scheduling.

    The worker count is a process-global knob (default 1 = sequential)
    so `-j N` can be threaded once through the drivers rather than
    through every call site. *)

val set_jobs : int -> unit
(** Set the worker-domain count used by subsequent maps.  Values below 1
    are clamped to 1 (sequential).  Call once from the driver before any
    parallel map; the knob is not synchronized for mid-map changes. *)

val jobs : unit -> int
(** Current worker count. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [-j 0] resolves to. *)

val map_array : ('a -> 'b) -> 'a array -> 'b array
(** [map_array f arr] is [Array.map f arr], computed by up to
    [jobs ()] domains pulling indices from a shared counter.  Results
    are placed at their input index.  If any [f] raises, one of the
    raised exceptions is re-raised after all domains are joined. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map_array}; preserves order. *)

val concat_map : ('a -> 'b list) -> 'a list -> 'b list
(** [concat_map f l] is [List.concat_map f l] with the per-element
    calls fanned out; concatenation order follows the input order. *)

(** Execute litmus tests on the repository's runtimes and verify the
    observed outcomes against the {!Model} reference sets.

    For a deterministic runtime a single configuration yields a single
    outcome, so the checker explores the outcome space by varying
    schedule perturbations: per-thread start delays (which shift the
    instruction-count order) and engine seeds (which shift the
    nondeterministic baseline's interleavings).

    The paper's consistency claim corresponds to [tso_ok = true] for
    every deterministic runtime on every test, with [beyond_sc = true]
    achievable on the store-buffering test (proving the implementation
    really buffers stores rather than accidentally providing SC). *)

type verdict = {
  test_name : string;
  runtime : string;
  observed : Model.Outcome_set.t;
  allowed_tso : Model.Outcome_set.t;
  allowed_sc : Model.Outcome_set.t;
  tso_ok : bool;  (** observed is a subset of the TSO-permitted set *)
  sc_ok : bool;  (** observed is a subset of the SC-permitted set *)
  beyond_sc : bool;  (** some observed outcome is TSO-only (store buffering seen) *)
}

val observe :
  Runtime.Run.runtime ->
  ?paddings:int list ->
  ?seed:int ->
  Litmus.t ->
  Model.outcome
(** One execution, one outcome. *)

val default_paddings : nthreads:int -> int list list
(** A small grid of per-thread start-delay vectors. *)

val run_test :
  Runtime.Run.runtime ->
  ?paddings:int list list ->
  ?seeds:int list ->
  Litmus.t ->
  verdict

val pp_verdict : Format.formatter -> verdict -> unit

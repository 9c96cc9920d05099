(** Deterministic pseudo-random number generation for the simulator.

    Every source of modelled nondeterminism (instruction-latency jitter,
    wake-up ordering noise, performance-counter measurement error) draws
    from an explicitly seeded generator, so a simulation run is a pure
    function of its seed.  The generator is SplitMix64: tiny state, good
    statistical quality, and [split] lets independent subsystems derive
    uncorrelated streams from one master seed. *)

type t

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    uncorrelated with the remainder of [t]'s stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val jitter : t -> amplitude:float -> float
(** [jitter t ~amplitude] is uniform in [\[1 -. amplitude, 1 +. amplitude]],
    used as a multiplicative latency perturbation.  [amplitude] must be in
    [\[0, 1)]. *)

val bool : t -> bool

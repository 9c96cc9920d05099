(** Logical-clock soundness study (paper section 2.1, reference [30]).

    The paper notes a small degree of nondeterminism in hardware
    performance-counter measurements and argues the logical clock "is
    sound in the presence of deterministic performance counters".  This
    study quantifies the contrapositive: with increasing multiplicative
    noise injected into published counter values, how often do perturbed
    executions stop producing identical witnesses?  At 0 ppm determinism
    must be absolute; at high noise the GMIC order dissolves. *)

type row = {
  ppm : int;  (** parts-per-million counter noise *)
  programs : int;
  divergent : int;  (** programs whose witnesses differed across runs *)
}

val measure : ?programs:int -> ?threads:int -> unit -> row list
val run : ?threads:int -> unit -> Fig_output.t

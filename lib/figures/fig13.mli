(** Fig 13: speedup contributed by each optimization of section 3, on the
    most difficult benchmarks: Consequence-IC with all optimizations
    versus the same with one optimization disabled (higher is better;
    1.0 = the optimization does not matter for that program).

    Paper shape: adaptive coarsening and fast-forward carry ferret; the
    parallel barrier carries ocean_cp, lu_ncb, canneal and lu_cb;
    user-space counter reads contribute very little anywhere. *)

type row = {
  benchmark : string;
  speedups : (string * float) list;  (** optimization name, speedup *)
}

val measure : ?threads:int -> ?seed:int -> unit -> row list
val run : ?threads:int -> ?seed:int -> unit -> Fig_output.t

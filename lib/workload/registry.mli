(** The benchmark registry: the 19-benchmark evaluation suite (paper
    section 5, Fig 10) plus the six server-shaped transactional KV
    traffic mixes ({!Kv.Service}).

    Groups the models by their source suite and by the roles they play in
    the paper's figures. *)

type suite = Phoenix | Parsec | Splash2 | Service

val suite_name : suite -> string

type entry = {
  suite : suite;
  program : Api.t;
  make : ?scale:float -> unit -> Api.t;
}

val all : entry list
(** The 19 Fig 10 benchmarks in display order, then the six KV traffic
    shapes. *)

val paper : entry list
(** The 19 Fig 10 benchmarks: {!all} without the KV traffic shapes.
    Every number compared with one of the paper's folds over these. *)

val kv_set : string list
(** The six KV service traffic shapes, in registry order. *)

val names : string list

val find : string -> entry
(** Lookup by program name.  Raises [Not_found]. *)

val hardest_five : string list
(** The "five most challenging benchmark programs" of the headline claim
    (the Fig 11 scalability set minus kmeans): ocean_cp, lu_ncb, ferret,
    water_nsquared, canneal. *)

val fig11_set : string list
(** Fig 11/12 scalability study: ocean_cp, lu_ncb, ferret, kmeans,
    water_nsquared, canneal. *)

val fig13_set : string list
(** Fig 13 optimization study: eight of the most difficult benchmarks. *)

val fig14_set : string list
(** Fig 14 coarsening study: reverse_index and ferret. *)

val fig15_set : string list
(** Fig 15 time-breakdown selection. *)

val fig16_set : string list
(** Fig 16 memory-propagation study: benchmarks with enough page
    traffic. *)

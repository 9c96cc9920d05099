(** Phoenix [string_match]: pure scanning compute, effectively no
    synchronization and almost no writes; the paper's Fig 15 uses it as
    the "embarrassingly parallel" control. *)

val make : ?scale:float -> unit -> Api.t

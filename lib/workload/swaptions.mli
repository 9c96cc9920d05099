(** PARSEC [swaptions]: Monte-Carlo pricing over private state;
    embarrassingly parallel. *)

val make : ?scale:float -> unit -> Api.t

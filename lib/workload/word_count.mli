(** Phoenix [word_count]: parallel scan plus a lock-protected merge of
    per-thread counts into the shared table. *)

val make : ?scale:float -> unit -> Api.t

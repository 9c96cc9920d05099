(** Wire format of the per-thread, per-round intent records that the
    arbitration ({!Validate.arbitrate}) walks in place: the published
    read ranges (with their TL2 read-set version stamps) and write keys
    of every update transaction attempted this round.  The bytes live
    in heap memory, so they feed the run's [mem_hash]. *)

type read_entry = { key : int; len : int; ver : int }
type txn_intent = { seq : int; reads : read_entry list; writes : int list }

val words_for : txn_intent list -> int
val encode : txn_intent list -> Bytes.t
val decode : Bytes.t -> txn_intent list
(** [decode] parses a full intent region image; counts drive parsing, so
    bytes beyond the encoded round are ignored.  The service never
    decodes: this list view is what tests check the in-place
    arbitration against. *)

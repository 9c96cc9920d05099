(** Event labels without [Printf].

    The runtimes name spans, instants and sync objects with short
    labels: literal pieces around one to three ints, such as
    ["commit:v12"], ["update:v3-v7"] or ["conflict:p4+16..23"].  Each
    function here writes the decimal digits itself and allocates the
    result once, at its exact size.  For every int, [min_int] and
    negatives included, the text equals what [Printf.sprintf] with
    [%d] (or [string_of_int]) gives. *)

val int : string -> int -> string
(** [int p a] is [p ^ string_of_int a]. *)

val int2 : string -> int -> string -> int -> string
(** [int2 p a q b] is [p ^ string_of_int a ^ q ^ string_of_int b]. *)

val int3 : string -> int -> string -> int -> string -> int -> string
(** [int3 p a q b r c] is
    [p ^ string_of_int a ^ q ^ string_of_int b ^ r ^ string_of_int c]. *)

(** {1 Interned labels}

    A table holds the labels [prefix ^ string_of_int n ^ suffix] for
    the small ids [n] in 0–63.  Each is built the first time it is
    asked for and kept, so a table at the top level of a module builds
    it once per process, and only if the process uses it.  Later
    lookups return that shared string and allocate nothing; any other
    id gets a fresh label. *)

type table

val n_interned : int
(** 64: a table interns the ids [0, n_interned). *)

val table : string -> string -> table
(** [table prefix suffix], empty until used. *)

val get : table -> int -> string
(** [get t n] is [prefix ^ string_of_int n ^ suffix], built at its
    exact size; for [n] in 0–63 it is the table's shared string.
    Concurrent first uses of one id may each build it; every later use
    gets the kept one. *)

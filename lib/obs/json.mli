(** Minimal JSON tree, printer and parser.

    The observability exporters (Chrome traces, metrics dumps, bench
    section dumps) must emit machine-readable output without adding a
    dependency the container may not have; this module is a small,
    self-contained JSON implementation.  The parser exists so tests can
    check emitted documents structurally rather than by string match. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Strings are escaped per RFC 8259;
    non-finite floats render as [null] (JSON has no representation). *)

val to_file : string -> t -> unit
(** Write [to_string] plus a trailing newline. *)

val parse : string -> (t, string) result
(** Strict parser for the subset this module prints (standard JSON;
    [\uXXXX] escapes outside ASCII are decoded to UTF-8).  Numbers
    without a fraction or exponent parse as [Int]. *)

(** {1 Accessors (for tests and consumers)} *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_list_opt : t -> t list option
val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] values coerce to float. *)

val to_string_opt : t -> string option

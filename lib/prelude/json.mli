(** Minimal hand-rolled JSON: one value type, a recursive-descent parser
    and a compact printer.

    This is the single JSON implementation shared by the perf-baseline
    harness ([Mp_forensics.Baseline], schema [mpres-bench-core-*]) and the
    scheduling-service wire protocol ([Mp_service.Request]/[Response]).
    It covers exactly the subset those schemas use — objects, arrays,
    strings, finite numbers, booleans, null — and is not a general-purpose
    JSON library (no unicode escapes, no arbitrary-precision numbers).

    Determinism note: {!to_string} prints objects in field order and
    floats through {!float_str} (shortest representation that round-trips
    exactly), so serializing the same value always yields the same
    bytes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of int * string
(** Byte offset and one-line description of a parse failure. *)

val parse : string -> t
(** Parse a complete document (trailing content is an error).
    @raise Parse_error on malformed input. *)

val of_string : string -> (t, string) result
(** Non-raising {!parse}; the error line includes the byte offset. *)

val to_string : t -> string
(** Compact one-line rendering ([{"a":1,"b":[true,null]}]). *)

val escape : string -> string
(** Escape a string for embedding between double quotes (["\""], ["\\"],
    ["\n"], ["\t"], ["\r"] and other control characters). *)

val float_str : float -> string
(** Shortest decimal rendering that parses back to exactly the same
    float ([%.15g], falling back to [%.17g]). *)

(** {2 Accessors}

    All return [None] on a missing field or a type mismatch, so callers
    can bind them with a [let*] option monad. *)

val field : t -> string -> t option
(** [field (Obj _) name] looks the field up; [None] on non-objects. *)

val str : t -> string -> string option
val num : t -> string -> float option
val int_ : t -> string -> int option

val arr : t -> string -> t list option
val obj : t -> string -> (string * t) list option

val to_int : t -> int option
(** [Some i] when the value is a number holding the integer [i] in
    [[-2^62, 2^62)]; [None] on a fraction, a value outside that range
    or a non-number. *)

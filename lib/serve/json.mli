(** A minimal line-oriented JSON codec for the Duoserve wire protocol.

    The container ships no JSON library, and the protocol needs only the
    plain data subset: objects, arrays, strings, numbers, booleans and
    null.  {!to_string} emits each value on one line with object fields
    in the order given (the golden-transcript tests rely on that
    stability); {!parse} accepts any RFC 8259 document, including
    [\uXXXX] escapes (decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact single-line rendering; integral numbers print without a
    decimal point, other numbers in the fewest significant digits (15 to
    17) that parse back to the same float. *)
val to_string : t -> string

(** Parse a complete document; trailing garbage (other than whitespace)
    is an error.  The error string describes the first failure and its
    byte offset. *)
val parse : string -> (t, string) result

(** {2 Accessors} — all total; [None] on a shape mismatch. *)

(** Field lookup on objects. *)
val member : string -> t -> t option

val get_str : t -> string option
val get_num : t -> float option

(** [get_int] requires the number to be integral. *)
val get_int : t -> int option

val get_bool : t -> bool option
val get_list : t -> t list option

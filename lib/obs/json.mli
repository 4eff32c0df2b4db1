(** The repository's one JSON reader/writer.

    Every JSON byte the system emits goes through it: the service's
    newline-delimited wire protocol (one value per line), trace and
    audit JSON, validation reports and golden files, and the BENCH
    trajectory files.  It covers objects, arrays, strings, integers,
    floats, booleans and null, with no dependency beyond the stdlib.

    Printing is canonical enough for tests to byte-compare responses:
    object members print in the order given, strings escape the
    mandatory characters only, integers print as integers, floats print
    as [%.17g] (non-finite ones as [null]), and {!to_string} never emits
    a newline (so one value is always one line). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing input after the value (other than
    whitespace) is an error.  The error string says what was expected
    and at which byte offset. *)

val to_string : t -> string
(** Canonical one-line rendering. *)

val pretty : t -> string
(** Multi-line, 2-space-indented rendering (still read by {!parse});
    ends in a newline.  Scalars print exactly as {!to_string} prints
    them.  Golden files and BENCH files are written in this form so
    drifts show as reviewable diffs. *)

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** Object member lookup; [None] for absent members and non-objects. *)

val to_string_opt : t -> string option

val to_int_opt : t -> int option
(** Accepts [Int]; also a [Float] with an exact integer value. *)

(** Text and JSON renderers for traces, audits, span timings and counters.

    The JSON renderer builds {!Json.t} values and prints them with
    {!Json.to_string}, so strings are escaped per RFC 8259, floats print
    as [%.17g] and non-finite floats as [null]. *)

val pp_span_stats : Format.formatter -> Recorder.span_stat list -> unit

val pp_counters : Format.formatter -> (string * int) list -> unit

val pp_recorder : Format.formatter -> Recorder.t -> unit
(** The full text report: audit, span timings, counters. *)

val json_of_recorder : Recorder.t -> string
(** One JSON object: [{"events": [...], "audit": [...], "spans": [...],
    "counters": {...}}]. *)

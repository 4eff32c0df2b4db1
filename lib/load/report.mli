(** Load-run reports: aggregates over a {!Generator.plan} and the
    {!Driver.outcome} of playing it.

    The report separates what is deterministic from what is timing.  The
    {!deterministic_summary} depends only on the plan and the
    correctness counters — request counts per kind, stream bytes,
    matched/mismatched/timed-out totals — so two runs of the same seed
    must render it identically, whatever the scheduler did; that is the
    byte-equality the determinism tests assert.  Throughput and the
    latency quantiles (p50/p90/p99 and the exact max, read from one
    histogram snapshot) live only in the full {!to_text}/{!to_json}
    renderings. *)

type t = {
  seed : int;
  clients : int;
  requests : int;
  kind_counts : (Generator.kind * int) list;  (** Every kind, plan order. *)
  stream_bytes : int;  (** Total request bytes on the wire. *)
  sent : int;
  received : int;
  matched : int;
  mismatched : int;
  timed_out : int;
  mismatches : Driver.mismatch list;
  elapsed_s : float;
  throughput_rps : float;  (** [received / elapsed_s]. *)
  latency : Estima_obs.Metrics.Histogram.snapshot;
  latency_by_kind : (Generator.kind * Estima_obs.Metrics.Histogram.snapshot) list;
      (** Per request kind, for the kinds answered: a cached predict's
          tail and a collection's are different questions. *)
}

val make : Generator.plan -> Driver.outcome -> t

val clean : t -> bool
(** Same predicate as {!Driver.clean}: every request answered with its
    expected bytes. *)

val deterministic_summary : t -> string
(** The timing-free portion, one [key=value] per line — byte-identical
    across runs of the same plan against a correct server. *)

val kind_quantiles : t -> (string * float * float) list
(** [(kind label, p50, p99)] in seconds, per entry of [latency_by_kind]. *)

val to_text : t -> string
(** Human-readable report: the deterministic summary plus throughput
    and latency quantiles, overall and as p50/p99 per request kind. *)

val to_json : t -> string
(** One-line JSON object with the same content as {!to_text}, latencies
    in seconds under ["latency"] with [p50]/[p90]/[p99]/[max], and under
    ["latency_by_kind"] as [{KIND: {"p50", "p99"}}]. *)

(** Deterministic request-stream generation for load-testing
    [estima_serve].

    A {!plan} is a function of its inputs only: the same seed, mix and
    payload set produce byte-identical request frames — and, because
    every expected response is computed here through {!Estima.Api} and
    rendered with the exact {!Estima_service.Protocol} builders the
    server uses, byte-identical {e expected} response lines too.  A
    driver ({!Driver}) can therefore verify a live server by plain
    string equality, with no tolerance and no reference process: the
    server is correct iff every response matches its precomputed bytes,
    which are in turn byte-identical to what [estima_cli predict --from]
    prints (the Api/CLI/server identity proven by the validation
    differential).

    The stream mixes the protocol's request shapes — v1 and v2 predict
    with inline CSV, predict by suite workload name, v2 predict with
    bootstrap confidence bands — with deliberately malformed frames
    (random junk, truncated JSON, NUL and non-UTF-8 bytes, numeric
    overflow, unknown ops, version-negotiation failures), whose expected
    typed error lines are precomputed the same way.  Randomness comes
    from one splitmix64 generator ({!Estima_numerics.Rng}), split once
    per client in order, so per-client streams are independent of how
    the driver schedules them. *)

type payload = { spec_name : string; csv : string }
(** One inline-CSV request body: the measurements document and the
    workload name the request's ["spec"] member carries. *)

val suite_payloads :
  ?seed:int ->
  ?repetitions:int ->
  ?max_threads:int ->
  machine:Estima_machine.Topology.t ->
  string list ->
  payload list
(** Collect the named suite workloads on [machine] (defaults: seed 42,
    3 repetitions, a 12-core window — the service test-suite protocol)
    and export each as a canonical CSV payload.  Unknown names raise
    [Invalid_argument]. *)

type kind = Predict_v1 | Predict_v2 | Workload | Confidence | Malformed

val all_kinds : kind list
(** Every kind, in the order above. *)

val kind_label : kind -> string
(** ["predict_v1"], ["predict_v2"], ["workload"], ["confidence"],
    ["malformed"]. *)

type request = {
  id : int;  (** The wire ["id"], unique across the whole plan. *)
  kind : kind;
  line : string;  (** The exact frame (no trailing newline). *)
  expected : string;  (** The exact response line the server must produce. *)
}

type mix = {
  v1 : int;
  v2 : int;
  workload : int;
  confidence : int;
  malformed : int;
}
(** Relative weights of the request kinds; a zero weight removes the
    kind from the stream. *)

val default_mix : mix
(** [{ v1 = 5; v2 = 3; workload = 1; confidence = 0; malformed = 1 }] —
    confidence resampling is a full pipeline refit per resample, so it
    is opt-in. *)

type plan = {
  seed : int;
  mix : mix;
  payloads : payload list;
  streams : request array array;  (** One request stream per client. *)
}

val plan :
  ?mix:mix ->
  ?confidence_resamples:int ->
  ?workloads:string list ->
  ?payloads:payload list ->
  machine:Estima_machine.Topology.t ->
  target:Estima_machine.Topology.t ->
  base:Estima.Config.t ->
  seed:int ->
  clients:int ->
  requests_per_client:int ->
  unit ->
  plan
(** Build the full request plan.  [machine]/[target]/[base] must mirror
    the server's configuration (the same flags [estima_serve] was
    started with), or the precomputed expectations will not match its
    responses.  Defaults: {!default_mix}, 25 confidence resamples,
    workload-by-name requests drawn from [workloads] (default
    [["kmeans"]]), payloads from {!suite_payloads} over a standard
    four-workload set.  Expected responses are memoised per distinct
    payload, so plan construction runs each unique pipeline once, not
    once per request.  Raises [Invalid_argument] on nonsense (no
    clients, empty payloads with a nonzero CSV weight, a payload whose
    prediction fails). *)

val stream_bytes : plan -> string
(** Every frame of every client in order, newline-terminated — the
    byte string determinism tests compare across runs. *)

val total_requests : plan -> int

val count_kind : plan -> kind -> int

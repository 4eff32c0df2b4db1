(** The prediction server: a transport-independent request dispatcher.

    Requests enter through {!submit} (the socket transports) or
    {!handle_batch} (stdio and in-process callers); both run the same
    phase functions — parse, admit, key, cache, compute, respond — and
    answer each request in order.  Everything the service promises lives
    here, where tests can drive it in-process and deterministically:

    - {b bounded admission}: at most [queue_capacity] predict requests
      are in flight — admitted and not yet answered — across every
      connection; the rest are shed with a typed
      {!Estima.Diag.Overloaded} before any work starts;
    - {b deadlines}: a request whose wait already exceeds its deadline
      (its own ["timeout_ms"] or the server default) when its compute
      job starts is shed with {!Estima.Diag.Deadline_exceeded} instead of
      computing an answer nobody is waiting for — cache hits are exempt,
      they are served instantly regardless;
    - {b result cache}: results are cached in an LRU keyed by the
      canonical CSV of the ingested series plus
      {!Estima.Config.fingerprint} and the target core count, so a hit
      returns byte-identical text to a fresh run, and configs differing
      only in observationally-neutral knobs share entries;
    - {b coalescing and the worker pool}: a key already being computed
      gains the new request as a waiter (counted as a cache hit); the
      unique misses of one read fan out together on an
      {!Estima_par.Pool} of [jobs] domains; responses are byte-identical
      for any [jobs];
    - {b metrics}: counters for requests, cache hits/misses, sheds and
      failures, plus a latency histogram, rendered by the [metrics]
      command via {!Estima_obs.Metrics.render};
    - {b crash containment}: an exception escaping the pipeline,
      admission or response building is captured per request and
      answered with a typed {!Estima.Diag.Internal_error} (cause
      ["internal"], exit code 5, message plus a truncated backtrace)
      carrying that request's own [id] and ["v"], counted once per
      affected request in [estima_internal_errors_total] (so it moves in
      step with [estima_errors_total] even when duplicate requests
      coalesced onto one failed computation).  Faulted results never
      enter the cache, and the server, pool and cache remain usable.

    {b Threads.}  The socket transports run two threads of the main
    domain.  The loop thread owns every piece of server state — cache,
    in-flight table, metrics, fault table — and calls {!submit}, then
    {!next_job} whenever the compute thread is idle.  The compute thread
    only runs the first half of a job (a collection, a file read or a
    pool fan-out of fits); the loop thread runs the half it returns.
    Neither function is safe to call from any other thread. *)

type config = {
  machine : Estima_machine.Topology.t;  (** Machine the CSVs were measured on. *)
  target : Estima_machine.Topology.t option;
      (** Machine to extrapolate to; [None] = same as [machine].  Decides
          the default target core count. *)
  base : Estima.Config.t;  (** Pipeline knobs, shared by every request. *)
  jobs : int;  (** Worker pool size, >= 1. *)
  queue_capacity : int;
      (** Max predict requests in flight (admitted, not yet answered), >= 1. *)
  cache_capacity : int;  (** LRU entries, >= 1. *)
  default_timeout_ms : int option;
      (** Queue-wait deadline applied when a request names none;
          [None] = requests wait forever. *)
  store_dir : string option;
      (** Directory of the shared measurement store's disk tier
          ({!Estima_store.Store}); [None] leaves the [ESTIMA_STORE]
          default in force.  Affects ["workload"] predict requests: their
          simulated series are read from/persisted to the store, so
          repeated requests across server restarts skip the simulator. *)
}

val default_config : machine:Estima_machine.Topology.t -> config
(** [target = None], {!Estima.Config.default} knobs, [jobs = 1],
    [queue_capacity = 64], [cache_capacity = 128], no default timeout,
    no store directory override. *)

type t

val create : ?clock:(unit -> float) -> config -> t
(** Validates the configuration ([Invalid_argument] on nonsense) and
    spawns the worker pool.  [clock] (seconds, monotonic enough;
    default [Unix.gettimeofday]) exists so tests can drive the deadline
    path deterministically. *)

val metrics : t -> Estima_obs.Metrics.t

val handle_batch : t -> string list -> string list * [ `Continue | `Shutdown ]
(** Process one batch of request lines to completion on the calling
    thread: ["file"] and ["workload"] requests are resolved as they are
    admitted, the batch's misses fan out on the pool together.  Returns
    one response line per request, in order, and whether a [shutdown]
    request was seen (the whole batch is still processed first). *)

type slot = string option ref
(** A request's response line, [None] until it is known. *)

val submit : t -> string list -> slot list * [ `Continue | `Shutdown ]
(** Admit the request lines of one read, one slot each, in order.
    Parse errors, metrics, shutdown acknowledgements, sheds and cache
    hits are filled at once; the rest wait for compute queued for
    {!next_job}.  ["file"] and ["workload"] requests are resolved by a
    job of their own, whose series comes back for the key, cache and
    coalescing steps; the misses of the read become one job. *)

val next_job : t -> (unit -> unit -> unit) option
(** Take the next queued job in FIFO order (the fit of a resolved
    request goes first: it already waited its turn), shedding waiters
    whose deadline has passed.  Calling the job computes (on any thread) and
    returns the completion, which must run on the thread that owns the
    server: it fills the cache and the slots. *)

val shutdown : t -> unit
(** Join the worker pool.  Idempotent; [handle_batch] afterwards raises. *)

(** {1 Fault injection — testing only}

    A hook the fault-injection harness ([test/test_faults.ml], and
    [estima_serve --inject-fault]) uses to make the predict pipeline
    misbehave on chosen workloads, so crash containment can be proven
    against real faults rather than hoped for.  Faults are keyed by the
    ingested series' spec name (the request's ["spec"] member, or its
    derived default).  Not for production use: a faulted server
    deliberately serves wrong bytes for the chosen keys. *)

type fault =
  | Fault_raise of string
      (** The pipeline raises [Failure msg] instead of returning — the
          poisoned-request scenario.  Answered with a typed [internal]
          error, exit code 5. *)
  | Fault_delay of float
      (** The pipeline stalls this many seconds before answering — the
          timeout/slow-worker scenario. *)
  | Fault_garbage
      (** The response text is replaced with garbage bytes (the result
          is {e not} cached) — the corrupted-result scenario. *)

val inject_fault : t -> spec:string -> fault -> unit
(** Arm [fault] for every predict request whose series is named [spec];
    replaces any fault already armed for that spec. *)

val clear_faults : t -> unit
(** Disarm every fault; subsequent requests are served normally (and
    correctly — garbage never reached the cache). *)

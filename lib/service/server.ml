module Api = Estima.Api
module Config = Estima.Config
module Diag = Estima.Diag
module Metrics = Estima_obs.Metrics
module Topology = Estima_machine.Topology

type config = {
  machine : Topology.t;
  target : Topology.t option;
  base : Config.t;
  jobs : int;
  queue_capacity : int;
  cache_capacity : int;
  default_timeout_ms : int option;
  store_dir : string option;
}

let default_config ~machine =
  { machine; target = None; base = Config.default; jobs = 1; queue_capacity = 64;
    cache_capacity = 128; default_timeout_ms = None; store_dir = None }

(* The cache stores the rendered response parts, not the prediction: a
   hit then replays the exact bytes of the run that filled it, and the
   byte-identity guarantee needs no argument about re-rendering.  The
   confidence block (v2 requests that asked for one) is cached the same
   way; it is part of the cache key, so plain and confidence requests
   for the same series never collide. *)
type rendered = {
  summary : string;
  rows : string list;
  verdict : string;
  confidence : Protocol.confidence option;
}

(* Server-side bootstrap policy: requests choose only the resample
   count (capped — each resample is a full pipeline refit); level and
   seed are fixed so equal requests are byte-identical across servers. *)
let confidence_level = 0.90
let confidence_seed = 42
let max_confidence_resamples = 1000

(* A ["file"] request may name only a regular file no larger than the
   transports' default frame cap: a device or a FIFO would read forever
   or block the compute thread. *)
let max_file_bytes = 1 lsl 20

type fault = Fault_raise of string | Fault_delay of float | Fault_garbage

type slot = string option ref

(* One admitted request still owed an answer.  [timeout_ms] is the
   effective deadline (the request's own, else the server default). *)
type waiter = { id : Json.t; v : int; arrival : float; timeout_ms : int option; slot : slot }

(* One cache key being computed.  Requests for the same key coalesce
   onto it as extra waiters; the fault is looked up at admission and
   travels with the task, so the compute side never reads server state. *)
type task = {
  key : string;
  series : Estima_counters.Series.t;
  target_max : int;
  confidence : int option;
  fault : fault option;
  mutable waiters : waiter list;  (* newest first *)
}

(* Queued compute work, in FIFO order: the unique misses of one read, or
   the resolution of one ["file"]/["workload"] request. *)
type work = Fit of task list | Resolve of waiter * (unit -> unit -> unit)

type t = {
  config : config;
  clock : unit -> float;
  pool : Estima_par.Pool.t;
  cache : rendered Fit_cache.t;
  registry : Metrics.t;
  faults : (string, fault) Hashtbl.t;
  computing : (string, task) Hashtbl.t;
  work : work Queue.t;
  mutable fresh : task list;  (* misses admitted since the last [seal], newest first *)
  mutable in_flight : int;  (* admitted requests not yet answered *)
  mutable alive : bool;
}

let create ?(clock = Unix.gettimeofday) config =
  let need what n = if n < 1 then invalid_arg (Printf.sprintf "Server.create: %s = %d" what n) in
  need "jobs" config.jobs;
  need "queue_capacity" config.queue_capacity;
  need "cache_capacity" config.cache_capacity;
  (match config.default_timeout_ms with
  | Some ms when ms < 0 -> invalid_arg (Printf.sprintf "Server.create: default_timeout_ms = %d" ms)
  | _ -> ());
  (match Config.validate config.base with
  | Ok () -> ()
  | Error diag -> invalid_arg (Diag.render diag));
  (* Point the process-wide measurement store's disk tier where the
     operator asked; [None] leaves ESTIMA_STORE (or memory-only) in
     force.  Workload collections then persist across restarts. *)
  (match config.store_dir with
  | None -> ()
  | Some dir -> Estima_store.Store.set_dir (Estima_store.Store.default ()) (Some dir));
  { config; clock; pool = Estima_par.Pool.create ~jobs:config.jobs;
    cache = Fit_cache.create ~capacity:config.cache_capacity; registry = Metrics.create ();
    faults = Hashtbl.create 4; computing = Hashtbl.create 16; work = Queue.create (); fresh = [];
    in_flight = 0; alive = true }

let inject_fault t ~spec fault = Hashtbl.replace t.faults spec fault

let clear_faults t = Hashtbl.reset t.faults

let metrics t = t.registry

let count t name = Metrics.Counter.incr (Metrics.counter t.registry name) [@@inline]

(* Every answer goes through here, once per waiter: a second answer (a
   request that failed after it had already coalesced) is dropped. *)
let answer ?(latency = true) t w response =
  if !(w.slot) = None then begin
    if latency then
      Metrics.Histogram.observe
        (Metrics.histogram t.registry "estima_latency_seconds")
        (Float.max 0.0 (t.clock () -. w.arrival));
    t.in_flight <- t.in_flight - 1;
    w.slot := Some response
  end

(* Internal errors are counted per request, so
   [estima_internal_errors_total] and [estima_errors_total] move
   together even when several requests coalesced onto one failed key. *)
let fail t w diag =
  (match diag.Diag.cause with Diag.Internal_error _ -> count t "estima_internal_errors_total" | _ -> ());
  count t "estima_errors_total";
  answer t w (Protocol.error_response ~id:w.id ~v:w.v diag)

let refuse ?counter t w cause =
  Option.iter (count t) counter;
  fail t w (Diag.make ~stage:Diag.Serve ~subject:"request" cause)

(* An exception that escapes anywhere on a request's path — admission,
   compute or response building — becomes that request's (and only that
   request's) typed [internal] error, with its own id and version; the
   server, pool and cache stay usable. *)
let contain f =
  try f ()
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    Error (Diag.of_exn ~subject:"request" exn bt)

let guard t w f = match contain (fun () -> Ok (f ())) with Ok () -> () | Error diag -> fail t w diag

let cache_key t ~series ~target_max ~confidence =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            (* The canonical CSV carries no workload name, but the
               rendered summary does — without the spec name in the key,
               two requests differing only in "spec" would collide and
               one would replay the other's summary line. *)
            Printf.sprintf "spec=%s" series.Estima_counters.Series.spec_name;
            Estima_counters.Csv_export.series_to_csv series;
            Config.fingerprint t.config.base;
            Printf.sprintf "target_max=%d" target_max;
            (* The protocol version is deliberately absent: it only
               changes the response envelope, which is built per request
               at respond time — v1 and v2 requests share entries. *)
            (match confidence with
            | None -> "confidence=none"
            | Some n -> Printf.sprintf "confidence=%d" n);
          ]))

(* A "workload" predict collects the named suite workload on the
   server's measurements machine under the CLI's collect defaults (seed
   42, 5 repetitions, the workload's plugins), resolved through the
   shared measurement store — with a disk tier attached, repeats across
   restarts read the persisted series instead of re-simulating. *)
let collect_workload t name =
  match Estima_workloads.Suite.find name with
  | None ->
      let known = String.concat ", " (Estima_workloads.Suite.names Estima_workloads.Suite.all) in
      let msg = Printf.sprintf "unknown workload %S (known: %s)" name known in
      Error (Diag.make ~stage:Diag.Serve ~subject:name (Diag.Parse_error { file = "<wire>"; line = 0; msg }))
  | Some entry ->
      Api.collect_checked ~seed:42 ~repetitions:5 ~plugins:entry.Estima_workloads.Suite.plugins
        ~machine:t.config.machine ~spec:entry.Estima_workloads.Suite.spec
        ~max_threads:(Topology.cores t.config.machine) ()

(* A path [stat] cannot see falls through to the loader, whose
   unreadable-file diagnostic is the one clients already get. *)
let load_file t ~spec_name file =
  let refuse msg =
    Error (Diag.make ~stage:Diag.Collect ~subject:file (Diag.Parse_error { file; line = 0; msg }))
  in
  match Unix.stat file with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } when st_size > max_file_bytes ->
      refuse (Printf.sprintf "file is %d bytes, over the %d-byte limit" st_size max_file_bytes)
  | { Unix.st_kind = Unix.S_REG; _ } | (exception Unix.Unix_error _) ->
      Api.load_series ?spec_name ~machine:t.config.machine file
  | _ -> refuse "not a regular file"

let resolve_series t ~(file : string option) ~csv ~workload ~spec_name =
  match (csv, file, workload) with
  | Some csv, _, _ ->
      Api.series_of_csv ~file:(Option.value ~default:"<wire>" file) ?spec_name ~machine:t.config.machine csv
  | None, Some file, _ -> load_file t ~spec_name file
  | None, None, Some name -> collect_workload t name
  | None, None, None -> assert false (* Protocol.parse_request rejects this shape *)

let render prediction confidence =
  {
    summary = Api.render_summary prediction;
    rows = Api.render_rows prediction;
    verdict = Api.render_verdict prediction;
    confidence = Option.map (Protocol.confidence_of_api prediction) confidence;
  }

let respond_rendered ~id ~v (rendered : rendered) =
  Protocol.predict_response ~id ~v ~confidence:rendered.confidence ~summary:rendered.summary
    ~header:Api.rows_header ~rows:rendered.rows ~verdict:rendered.verdict

(* Key, cache and coalescing, on the loop: a hit answers now, a key
   already being computed gains a waiter and counts as a hit (so the
   hit/miss counters depend only on the request stream), and a miss
   becomes a fresh task for the next [seal]. *)
let admit_series t w ~target_max ~confidence = function
  | Error diag -> fail t w diag
  | Ok series -> (
      let key = cache_key t ~series ~target_max ~confidence in
      match (Fit_cache.find t.cache key, Hashtbl.find_opt t.computing key) with
      | Some rendered, _ ->
          count t "estima_cache_hits_total";
          answer t w (respond_rendered ~id:w.id ~v:w.v rendered)
      | None, Some task ->
          count t "estima_cache_hits_total";
          task.waiters <- w :: task.waiters
      | None, None ->
          count t "estima_cache_misses_total";
          let fault = Hashtbl.find_opt t.faults series.Estima_counters.Series.spec_name in
          let task = { key; series; target_max; confidence; fault; waiters = [ w ] } in
          Hashtbl.replace t.computing key task;
          t.fresh <- task :: t.fresh)

(* The misses admitted since the last seal become one job, as one read's
   misses always have: they fan out together on the pool.  A resolved
   request has already waited its turn, so its fit goes [first]. *)
let seal ?(first = false) t =
  let rest = Queue.create () in
  if first then Queue.transfer t.work rest;
  if t.fresh <> [] then Queue.add (Fit (List.rev t.fresh)) t.work;
  Queue.transfer rest t.work;
  t.fresh <- []

(* Admission of one predict request.  [queue_capacity] bounds the
   requests in flight — admitted and not yet answered — across every
   connection; [w] itself is already counted. *)
let admit t ~inline w ~file ~csv ~workload ~spec_name ~target_max ~confidence =
  count t "estima_predict_total";
  let capacity = t.config.queue_capacity in
  if t.in_flight > capacity then
    refuse ~counter:"estima_shed_overload_total" t w
      (Diag.Overloaded { pending = t.in_flight - 1; capacity })
  else
    match confidence with
    | Some n when n < 1 || n > max_confidence_resamples ->
        let what = Printf.sprintf "confidence resamples %d (need 1..%d)" n max_confidence_resamples in
        refuse t w (Diag.Bad_config { what })
    | _ ->
        let machine = Option.value ~default:t.config.machine t.config.target in
        let target_max = Option.value ~default:(Topology.cores machine) target_max in
        let resolve () = resolve_series t ~file ~csv ~workload ~spec_name in
        if inline || csv <> None then admit_series t w ~target_max ~confidence (resolve ())
        else
          (* Reading a file or collecting a workload is compute: it runs
             on the compute thread, and the series comes back here for
             the key, cache and coalescing steps. *)
          let job () =
            let series = contain resolve in
            fun () ->
              guard t w (fun () -> admit_series t w ~target_max ~confidence series);
              seal ~first:true t
          in
          Queue.add (Resolve (w, job)) t.work

let submit_lines t ~inline lines =
  let shutdown = ref false in
  let submit line =
    count t "estima_requests_total";
    let arrival = t.clock () in
    let waiter ~id ~v ~timeout_ms =
      t.in_flight <- t.in_flight + 1;
      let timeout_ms = match timeout_ms with None -> t.config.default_timeout_ms | ms -> ms in
      { id; v; arrival; timeout_ms; slot = ref None }
    in
    match Protocol.parse_request line with
    | Error (id, diag) ->
        (* Parse and version failures have no negotiated version, so
           the error keeps the v1 envelope. *)
        let w = waiter ~id ~v:1 ~timeout_ms:None in
        fail t w diag;
        w.slot
    | Ok request ->
        let w =
          match request with
          | Protocol.Predict { id; v; timeout_ms; _ } -> waiter ~id ~v ~timeout_ms
          | Protocol.Metrics { id; v } | Protocol.Shutdown { id; v } -> waiter ~id ~v ~timeout_ms:None
        in
        guard t w (fun () ->
            match request with
            | Protocol.Metrics { id; v } ->
                (* The server's own counters plus the shared measurement
                   store's (estima_store_*_total) in one dump. *)
                let store = Estima_store.Store.metrics (Estima_store.Store.default ()) in
                let dump = Metrics.render t.registry ^ Metrics.render store in
                answer ~latency:false t w (Protocol.metrics_response ~id ~v ~dump)
            | Protocol.Shutdown { id; v } ->
                shutdown := true;
                answer ~latency:false t w (Protocol.shutdown_response ~v ~id)
            | Protocol.Predict { file; csv; workload; spec_name; target_max; confidence; _ } ->
                admit t ~inline w ~file ~csv ~workload ~spec_name ~target_max ~confidence);
        w.slot
  in
  let slots = List.map submit lines in
  seal t;
  (slots, if !shutdown then `Shutdown else `Continue)

let submit t lines = submit_lines t ~inline:false lines

(* The test-only fault hook, applied around the pure pipeline call so
   the harness can make predict raise, stall or return garbage for the
   workloads it chose — see server.mli. *)
let run_pipeline t task =
  (match task.fault with
  | Some (Fault_raise msg) -> failwith msg
  | Some (Fault_delay seconds) -> Unix.sleepf seconds
  | Some Fault_garbage | None -> ());
  let config = t.config.base and series = task.series and target_max = task.target_max in
  match task.confidence with
  | None -> Result.map (fun p -> (p, None)) (Api.predict ~config ~series ~target_max ())
  | Some resamples ->
      Api.predict_with_confidence ~config ~resamples ~level:confidence_level ~seed:confidence_seed
        ~series ~target_max ()
      |> Result.map (fun (p, c) -> (p, Some c))

let garbage_rendered =
  { summary = "\x01garbage summary\x02"; rows = [ "NaN garbage NaN"; "\xff\xfe" ]; verdict = "garbage verdict"; confidence = None }

(* Crash containment: a worker exception is an outcome, not a job
   failure — Pool.run captured it with its backtrace, and it becomes a
   typed [internal] diagnostic for the waiters of that key only.
   Confidence metrics are recorded once per computed key; coalesced
   duplicates and cache hits do not re-count resamples.  Injected
   garbage is served (that is the fault being simulated) but never
   cached, so the cache stays clean once the fault is cleared. *)
let finish t task outcome =
  Hashtbl.remove t.computing task.key;
  let waiters = List.rev task.waiters in
  match outcome with
  | Error (exn, bt) ->
      let diag = Diag.of_exn ~subject:task.series.Estima_counters.Series.spec_name exn bt in
      List.iter (fun w -> fail t w diag) waiters
  | Ok (Error diag, _) -> List.iter (fun w -> fail t w diag) waiters
  | Ok (Ok (prediction, confidence), elapsed) ->
      Option.iter
        (fun (c : Api.Confidence.t) ->
          Metrics.Counter.incr ~by:c.Api.Confidence.resamples
            (Metrics.counter t.registry "estima_confidence_resamples_total");
          Metrics.Histogram.observe (Metrics.histogram t.registry "estima_confidence_seconds") elapsed)
        confidence;
      let rendered =
        if task.fault = Some Fault_garbage then Ok garbage_rendered
        else
          contain (fun () ->
              let rendered = render prediction confidence in
              Fit_cache.add t.cache task.key rendered;
              Ok rendered)
      in
      List.iter
        (fun w ->
          match rendered with
          | Ok r -> guard t w (fun () -> answer t w (respond_rendered ~id:w.id ~v:w.v r))
          | Error diag -> fail t w diag)
        waiters

(* The next job for the compute thread, or [None] when no work is
   queued.  Deadlines are checked here, when the job starts, because the
   wait in the queue is real: a waiter already past its deadline is shed
   instead of computing an answer nobody is waiting for, and a task with
   no waiter left is dropped. *)
let rec next_job t =
  match Queue.take_opt t.work with
  | None -> None
  | Some work -> (
      let now = t.clock () in
      let live w =
        match w.timeout_ms with
        | Some timeout_ms ->
            let waited_ms = int_of_float (Float.ceil ((now -. w.arrival) *. 1000.0)) in
            waited_ms <= timeout_ms
            || (refuse ~counter:"estima_shed_deadline_total" t w
                  (Diag.Deadline_exceeded { waited_ms; timeout_ms });
                false)
        | None -> true
      in
      match work with
      | Resolve (w, job) -> if live w then Some job else next_job t
      | Fit tasks -> (
          let keep task =
            task.waiters <- List.filter live task.waiters;
            if task.waiters = [] then Hashtbl.remove t.computing task.key;
            task.waiters <> []
          in
          match Array.of_list (List.filter keep tasks) with
          | [||] -> next_job t
          | tasks ->
              let timed task =
                let t0 = t.clock () in
                let result = run_pipeline t task in
                (result, Float.max 0.0 (t.clock () -. t0))
              in
              Some
                (fun () ->
                  let outcomes = Estima_par.Pool.run t.pool tasks ~f:timed in
                  fun () -> Array.iteri (fun i outcome -> finish t tasks.(i) outcome) outcomes)))

let handle_batch t lines =
  if not t.alive then failwith "Server.handle_batch: server is shut down";
  let slots, verdict = submit_lines t ~inline:true lines in
  let rec drain () = Option.iter (fun job -> job () (); drain ()) (next_job t) in
  drain ();
  (List.map (fun slot -> Option.get !slot) slots, verdict)

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Estima_par.Pool.shutdown t.pool
  end

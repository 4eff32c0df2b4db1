(* The traced run: replay a workload's inputs through each layer's public
   functions, in this process, and attribute time to the layers.

   A request takes the path the server gives it: Protocol.parse_request,
   ingest (Api.series_of_csv, or Api.collect_checked for a request by
   workload name), the cache key's canonical CSV (Csv_export), then on a
   result-cache miss the pipeline (Api.predict, and for a confidence
   request Api.predict_with_confidence), and Protocol's response
   builder.  Each call is a span (name, start, end, parent, request id)
   kept in memory and written out at the end.  The pipeline runs under an
   Estima_obs.Recorder, whose existing spans split extrapolation by stall
   category and give the scaling-factor fit (translate) its own time.
   Two layers cannot be replayed call by call and are derived from
   measurements of one cached frame: dispatch (in-process
   Server.handle_batch minus the calls above) and wire (the live TCP
   round trip minus Server.handle_batch).

   Each request is replayed twice, untraced and then traced; the
   difference is the tracing overhead.  The additivity line compares the sum of the layers'
   median self times with the untraced end-to-end median of the live
   run: what is left unexplained is mostly queueing in the server. *)

module Api = Estima.Api
module Json = Estima_service.Json
module Protocol = Estima_service.Protocol
module Server = Estima_service.Server
module Trace = Estima_obs.Trace
module Recorder = Estima_obs.Recorder
module Store = Estima_store.Store

type live = {
  cached_tcp_s : float;  (** Median TCP round trip of the calibration frame. *)
  latency_p50_s : float;  (** Untraced end-to-end median of the live run. *)
  live_layers : Stats.metric list;  (** Per-layer numbers read from the live server. *)
}

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  request : int;
}

type tracer = {
  traced : bool;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable current : int;  (** The request being replayed. *)
}

let tracer traced = { traced; spans = []; stack = []; next = 0; current = 0 }

let add tr ~name ~start ~stop =
  let id = tr.next in
  tr.next <- id + 1;
  tr.spans <-
    { id; name; start; stop; parent = (match tr.stack with p :: _ -> Some p | [] -> None); request = tr.current }
    :: tr.spans;
  id

let span tr name f =
  if not tr.traced then f ()
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> Some p | [] -> None in
    tr.stack <- id :: tr.stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        tr.stack <- List.tl tr.stack;
        tr.spans <- { id; name; start; stop = Unix.gettimeofday (); parent; request = tr.current } :: tr.spans)
      f
  end

let duration s = s.stop -. s.start

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type run = {
  tracer : tracer;
  mutable predicts : (Recorder.span_stat list * (string * int) list) list;
      (** Recorder spans and counters of each pipeline run. *)
  mutable collects : float list;  (** Seconds of each cold collection. *)
  mutable resample : float list;  (** Seconds per resample of each confidence request. *)
  collected : (string, unit) Hashtbl.t;
  mutable series : Estima_counters.Series.t option;  (** The first series that reached the pipeline. *)
}

let fresh traced =
  {
    tracer = tracer traced;
    predicts = [];
    collects = [];
    resample = [];
    collected = Hashtbl.create 8;
    series = None;
  }

let ok what = function
  | Ok v -> v
  | Error d -> failwith (Printf.sprintf "servebench: %s failed: %s" what (Estima.Diag.render d))

(* The server's collect defaults for a request by workload name. *)
let collect name =
  let entry = Option.get (Estima_workloads.Suite.find name) in
  ok "collection"
    (Api.collect_checked ~seed:42 ~repetitions:5 ~plugins:entry.Estima_workloads.Suite.plugins
       ~machine:Inputs.machine ~spec:entry.Estima_workloads.Suite.spec
       ~max_threads:(Estima_machine.Topology.cores Inputs.machine) ())

let target_max = Estima_machine.Topology.cores Inputs.target

let probe_name = "intruder-batched"

(* The server's fixed bootstrap policy (level 0.90, seed 42). *)
let confidence_level = 0.90

let confidence_seed = 42

let bootstrap r ~resamples series =
  let t0 = Unix.gettimeofday () in
  let result =
    ok "confidence"
      (Api.predict_with_confidence ~config:Inputs.base ~resamples ~level:confidence_level
         ~seed:confidence_seed ~series ~target_max ())
  in
  r.resample <- ((Unix.gettimeofday () -. t0) /. float_of_int resamples) :: r.resample;
  result

(* A result-cache miss: the pipeline, then the response text.  Like the
   server, a confidence request runs only Api.predict_with_confidence. *)
let pipeline r ~confidence series =
  let tr = r.tracer in
  let render p conf = (Api.render_summary p, Api.render_rows p, Api.render_verdict p, conf) in
  match confidence with
  | Some resamples ->
      span tr "confidence" (fun () ->
          let p, c = bootstrap r ~resamples series in
          render p (Some (Protocol.confidence_of_api p c)))
  | None ->
      span tr "extrapolate" (fun () ->
          let predict () = Api.predict ~config:Inputs.base ~series ~target_max () in
          let p =
            if not tr.traced then predict ()
            else begin
              let recorder = Recorder.create () in
              let p = Recorder.record recorder predict in
              let stats = Recorder.span_stats recorder in
              r.predicts <- (stats, Recorder.counters recorder) :: r.predicts;
              (* The scaling-factor fit closes the pipeline: its span ends now. *)
              let stop = Unix.gettimeofday () in
              List.iter
                (fun (s : Recorder.span_stat) ->
                  if s.path = [ "predict"; "factor" ] then
                    ignore
                      (add tr ~name:"translate" ~start:(stop -. (Int64.to_float s.total_ns /. 1e9)) ~stop))
                stats;
              p
            end
          in
          render (ok "prediction" p) None)

(* A request by workload name: the first one of a name in a run is a
   cold collection (the measurement store's memory is dropped first),
   later ones are answered by the store. *)
let collect_named r name =
  if Hashtbl.mem r.collected name then collect name
  else begin
    Store.reset_memory (Store.default ());
    let t0 = Unix.gettimeofday () in
    let series = collect name in
    Hashtbl.replace r.collected name ();
    r.collects <- (Unix.gettimeofday () -. t0) :: r.collects;
    series
  end

let replay_one r cache (t : Inputs.template) =
  let tr = r.tracer in
  span tr "request" (fun () ->
      let parsed = span tr "protocol.parse" (fun () -> Protocol.parse_request t.line) in
      match parsed with
      | Error (id, diag) -> ignore (span tr "protocol.render" (fun () -> Protocol.error_response ~id ~v:1 diag))
      | Ok (Protocol.Predict { id; v; csv; workload; spec_name; confidence; _ }) ->
          let series =
            match (csv, workload) with
            | Some csv, _ ->
                span tr "ingest.series_of_csv" (fun () ->
                    ok "ingest" (Api.series_of_csv ~file:"<wire>" ?spec_name ~machine:Inputs.machine csv))
            | None, Some name -> span tr "simulator.collect" (fun () -> collect_named r name)
            | None, None -> assert false
          in
          let key =
            span tr "ingest.canonical_csv" (fun () -> Estima_counters.Csv_export.series_to_csv series)
          in
          let key = (series.Estima_counters.Series.spec_name, key, confidence) in
          let summary, rows, verdict, conf =
            match Hashtbl.find_opt cache key with
            | Some parts -> parts
            | None ->
                if r.series = None then r.series <- Some series;
                let parts = pipeline r ~confidence series in
                Hashtbl.replace cache key parts;
                parts
          in
          ignore
            (span tr "protocol.render" (fun () ->
                 Protocol.predict_response ~id ~v ~confidence:conf ~summary ~header:Api.rows_header ~rows
                   ~verdict))
      | Ok _ -> assert false)

(* Replay the warm-up, then the workload's replay list, from an empty
   result cache: each request untraced and then traced, back to back, so
   the tracing overhead is not confused with the host's speed drifting
   between two long passes.  Returns the traced run and the two total
   times. *)
let replay (wl : Inputs.t) =
  Store.set_dir (Store.default ()) None;
  let plain = fresh false and traced = fresh true in
  let plain_cache = Hashtbl.create 64 and traced_cache = Hashtbl.create 64 in
  let time r cache t =
    let t0 = Unix.gettimeofday () in
    replay_one r cache t;
    Unix.gettimeofday () -. t0
  in
  List.fold_left
    (fun (i, plain_s, traced_s) t ->
      traced.tracer.current <- i;
      let p = time plain plain_cache t in
      (i + 1, plain_s +. p, traced_s +. time traced traced_cache t))
    (0, 0.0, 0.0) (wl.warmup @ wl.replay)
  |> fun (_, plain_s, traced_s) -> (traced, plain_s, traced_s)

(* ------------------------------------------------------------------ *)
(* Derived layers: dispatch and wire                                   *)
(* ------------------------------------------------------------------ *)

let repeat n f =
  List.init n (fun _ ->
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0)

(* In-process Server.handle_batch of the cached calibration frame, and
   the same frame through the replayed calls alone. *)
let dispatch (wl : Inputs.t) =
  let server =
    Server.create
      { (Server.default_config ~machine:Inputs.machine) with target = Some Inputs.target; base = Inputs.base }
  in
  let frame = wl.calibration.line in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      ignore (Server.handle_batch server [ frame ]);
      let batch = Stats.median (repeat 200 (fun () -> ignore (Server.handle_batch server [ frame ]))) in
      let r = fresh false in
      let cache = Hashtbl.create 4 in
      replay_one r cache wl.calibration;
      let calls = Stats.median (repeat 200 (fun () -> replay_one r cache wl.calibration)) in
      (batch, calls))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let hardware_events = [ "0D2h"; "0D5h"; "0D6h"; "0D7h"; "0D8h" ]

let layer_names =
  [ "wire"; "dispatch"; "protocol"; "ingest"; "simulator"; "extrapolate"; "translate"; "confidence" ]

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time: a span's duration minus the part its children cover. *)
let self_times spans =
  let covered = Hashtbl.create 256 in
  let get id = Option.value ~default:0.0 (Hashtbl.find_opt covered id) in
  List.iter (fun s -> Option.iter (fun p -> Hashtbl.replace covered p (get p +. duration s)) s.parent) spans;
  List.map (fun s -> (s, duration s -. get s.id)) spans

(* The spans in start order, times in microseconds from the first. *)
let spans_json spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us t = Json.Float ((t -. origin) *. 1e6) in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("start_us", us s.start);
             ("end_us", us s.stop);
             ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
             ("request", Json.Int s.request);
           ])
       (List.sort (fun a b -> Float.compare a.start b.start) spans))

let run (wl : Inputs.t) (live : live) =
  Estima_par.Fanout.set_jobs (Some 1);
  Trace.set_clock (fun () -> Int64.of_float (Unix.gettimeofday () *. 1e9));
  let batch_s, calls_s = dispatch wl in
  let dispatch_s = batch_s -. calls_s in
  let wire_s = live.cached_tcp_s -. batch_s in
  let r, plain_s, traced_s = replay wl in
  let requests = List.length wl.warmup + List.length wl.replay in
  let spans = r.tracer.spans in
  let selfs = self_times spans in
  let us_median name =
    Stats.median (List.filter_map (fun (s, _) -> if s.name = name then Some (duration s *. 1e6) else None) selfs)
  in
  (* Layer time per replayed request after the warm-up. *)
  let first_timed = List.length wl.warmup in
  let per_request = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      if s.request >= first_timed && s.name <> "request" then begin
        let key = (s.request, layer_of s.name) in
        Hashtbl.replace per_request key (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_request key))
      end)
    selfs;
  let layer_median layer =
    match layer with
    | "wire" -> wire_s
    | "dispatch" -> dispatch_s
    | _ ->
        Stats.median
          (List.init (List.length wl.replay) (fun i ->
               Option.value ~default:0.0 (Hashtbl.find_opt per_request (first_timed + i, layer))))
  in
  let medians = List.map (fun l -> (l, layer_median l)) layer_names in
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 medians in
  let e2e = live.latency_p50_s in
  Printf.printf "additivity %s: sum of layer medians %.4f ms (%s) vs untraced median latency %.4f ms; unexplained %.4f ms (%.1f%%)\n"
    wl.name (sum *. 1e3)
    (String.concat ", " (List.map (fun (l, v) -> Printf.sprintf "%s %.4f" l (v *. 1e3)) medians))
    (e2e *. 1e3) ((e2e -. sum) *. 1e3) (100.0 *. (e2e -. sum) /. e2e);
  let overhead_us = (traced_s -. plain_s) /. float_of_int requests *. 1e6 in
  Printf.printf "tracing overhead %s: %.3f s traced vs %.3f s untraced over %d requests: %.2f us per request\n"
    wl.name traced_s plain_s requests overhead_us;
  (* Pipeline numbers, per pipeline run. *)
  let runs = List.length r.predicts in
  let per_predict f = Stats.mean (List.map f r.predicts) in
  let span_ms path (stats, _) =
    List.fold_left
      (fun acc (s : Recorder.span_stat) ->
        if s.path = path then acc +. (Int64.to_float s.total_ns /. 1e6) else acc)
      0.0 stats
  in
  let counter name (_, counters) = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  (* Layers the workload's requests never reach are measured once on a
     probe: the suite's cheapest collection, and bands for the first
     series that reached the pipeline. *)
  let series = Option.get r.series in
  if r.collects = [] then ignore (collect_named r probe_name);
  if r.resample = [] then ignore (bootstrap r ~resamples:Inputs.confidence_resamples series);
  let fits =
    let xs = Estima_counters.Series.threads series and ys = Estima_counters.Series.times series in
    List.map
      (fun k ->
        ( "kernels.fit_us." ^ k.Estima_kernels.Kernel.name,
          Stats.median (repeat 15 (fun () -> ignore (Estima_kernels.Fit.fit k ~xs ~ys))) *. 1e6 ))
      Estima_kernels.Catalogue.all
  in
  let m = Stats.metric in
  ( spans_json spans,
  [
    m "wire.roundtrip_overhead_us" "us" (wire_s *. 1e6) ~note:"TCP p50 minus in-process handle_batch";
    m "protocol.parse_us" "us" (us_median "protocol.parse");
    m "protocol.render_us" "us" (us_median "protocol.render");
    m "ingest.series_of_csv_us" "us" (us_median "ingest.series_of_csv");
    m "ingest.canonical_csv_us" "us" (us_median "ingest.canonical_csv");
    m "dispatch.cached_request_us" "us" (batch_s *. 1e6) ~note:"in-process handle_batch, p50 of 200";
  ]
  @ live.live_layers
  @ [
      m "extrapolate.ms_per_predict" "ms" (per_predict (span_ms [ "predict"; "extrapolate" ]))
        ~note:(Printf.sprintf "mean of %d pipeline runs" runs);
    ]
  @ List.map
      (fun e ->
        m ("extrapolate.category_ms." ^ e) "ms"
          (per_predict (span_ms [ "predict"; "extrapolate"; "category:" ^ e ])))
      hardware_events
  @ [
      m "kernels.fit_attempts" "count" (per_predict (counter "fit.attempts"));
      m "kernels.fit_failed" "count" (per_predict (counter "fit.failed"));
      m "kernels.lm_converged" "count" (per_predict (counter "fit.lm-converged"));
      m "kernels.lm_unconverged" "count" (per_predict (counter "fit.lm-unconverged"));
    ]
  @ List.map (fun (name, v) -> m name "us" v) fits
  @ [
      m "translate.ms_per_predict" "ms" (per_predict (span_ms [ "predict"; "factor" ]));
      m "confidence.ms_per_resample" "ms" (Stats.mean r.resample *. 1e3)
        ~note:(Printf.sprintf "mean of %d confidence runs" (List.length r.resample));
      m "simulator.collect_ms" "ms" (Stats.mean r.collects *. 1e3)
        ~note:(Printf.sprintf "mean of %d cold collections" (List.length r.collects));
      m "trace.overhead_us" "us" overhead_us;
      m "trace.explained_share" "ratio" (sum /. e2e);
    ] )

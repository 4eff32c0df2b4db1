(* servebench: the repository's serving benchmark.

     servebench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--server PATH] [--out DIR]

   Spawns estima_serve --tcp, plays one workload (serve-hot, serve-cold
   or serve-mixed, see Inputs) built from the seed for S seconds, checks
   every response byte for byte against the Estima_load.Generator's
   expectation, and prints every end-to-end metric.  With --trace 1 it
   then replays the workload's inputs through each layer's public
   functions (Layers) and prints the per-layer metrics instead.  The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {NAME: {"value", "unit"}}}.
   Exits 1 on any mismatch, timeout or failed premise check. *)

module Json = Estima_service.Json
module Generator = Estima_load.Generator

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;
  out : string;
}

let usage () =
  prerr_endline
    "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 [--server PATH] [--out DIR]";
  exit 2

let parse_args argv =
  let rec go acc = function
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest -> go { acc with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { acc with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { acc with trace = v = "1" } rest
    | "--server" :: v :: rest -> go { acc with server = v } rest
    | "--out" :: v :: rest -> go { acc with out = v } rest
    | [] -> acc
    | _ -> usage ()
  in
  let args =
    try
      go
        {
          workload = "";
          seed = 0;
          seconds = 10.0;
          trace = false;
          server = "_build/default/bin/estima_serve.exe";
          out = ".servebench-run";
        }
        argv
    with Failure _ -> usage ()
  in
  if not (List.mem args.workload Inputs.names) then usage ();
  if args.seconds <= 0.0 then usage ();
  args

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let kind_label = Generator.kind_label

let is_predict (t : Inputs.template) =
  t.kind = Generator.Predict_v1 || t.kind = Generator.Predict_v2

let is_request (t : Inputs.template) = t.kind <> Generator.Malformed

let ms s = s *. 1e3

let latencies samples = List.map (fun (s : Client.sample) -> s.latency) samples

let answered samples = List.filter (fun (s : Client.sample) -> not (Float.is_nan s.latency)) samples

let of_kind p samples = List.filter (fun (s : Client.sample) -> p s.tpl) samples

let metric = Stats.metric

let p50_ms name samples =
  let lat = latencies (answered samples) in
  metric name "ms" (ms (Stats.median lat)) ~note:(Printf.sprintf "p50 of %d" (List.length lat))

let tail_ms name samples =
  let lat = latencies (answered samples) in
  let p = Stats.tail_percentile (List.length lat) in
  metric name "ms"
    (ms (Stats.percentile (Stats.sorted lat) p))
    ~note:(Printf.sprintf "p%g of %d" p (List.length lat))

let host_json () =
  let git =
    if Sys.file_exists ".git" then
      match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
      | ic ->
          let line = try String.trim (input_line ic) with End_of_file -> "" in
          ignore (Unix.close_process_in ic);
          if line = "" then "unknown" else line
      | exception Unix.Unix_error _ -> "unknown"
    else "unknown"
  in
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git", Json.String git);
    ]

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let counters_json counters = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters)

(* The timing-free description of a run: what was generated, what the
   deterministic warm-up left in the server's counters, and the fit
   counters of the warm-up's expectations.  Byte-identical across two
   runs of one seed. *)
let summary (wl : Inputs.t) ~seed ~warm_counters ~fit_counters =
  let kinds =
    List.map
      (fun k ->
        ( kind_label k,
          Json.Int (List.length (List.filter (fun (t : Inputs.template) -> t.kind = k) wl.prefix)) ))
      Generator.[ Predict_v1; Predict_v2; Workload; Confidence; Malformed ]
  in
  let stream = String.concat "" (List.map (fun (t : Inputs.template) -> t.line ^ "\n") wl.prefix) in
  Json.Obj
    [
      ("workload", Json.String wl.name);
      ("seed", Json.Int seed);
      ( "connections",
        Json.List
          (Array.to_list
             (Array.map
                (fun (c : Inputs.conn) ->
                  Json.Obj
                    [
                      ("label", Json.String c.label);
                      ( "pacing",
                        Json.String
                          (match c.pacing with
                          | Inputs.Closed _ -> "closed"
                          | Inputs.Scheduled items -> Printf.sprintf "scheduled %d" (Array.length items)
                          | Inputs.Open { rate; _ } -> Printf.sprintf "open %g/s" rate) );
                    ])
                wl.conns)) );
      ( "inputs",
        Json.Obj
          [
            ("requests", Json.Int (List.length wl.prefix));
            ("kinds", Json.Obj kinds);
            ("stream_bytes", Json.Int (String.length stream));
            ("stream_md5", Json.String (Digest.to_hex (Digest.string stream)));
          ] );
      ("warmup_requests", Json.Int (List.length wl.warmup));
      ("warmup_server_counters", counters_json warm_counters);
      ("warmup_fit_counters", counters_json fit_counters);
    ]

(* Fit counters of everything [f] runs. *)
let count_fits f =
  let recorder = Estima_obs.Recorder.create () in
  Estima_obs.Recorder.record recorder f;
  Estima_obs.Recorder.counters recorder

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let setups = 5

let calibration_requests = 200

(* The predict latency limit.  Cold fits take about 100 ms in the server,
   so a limit below that would read 0 on serve-cold; 250 ms still fails
   every predict that waits behind a simulator collection. *)
let slo_s = 0.250

let failures = ref []

let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

let all_matched what samples =
  List.iter
    (fun (s : Client.sample) ->
      if s.matched <> Some true then
        fail "%s: %s request answered with unexpected bytes: %s" what (kind_label s.tpl.kind)
          (Option.value ~default:"<none>" s.response))
    samples

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  if not (Sys.file_exists args.server) then begin
    prerr_endline ("servebench: no server binary at " ^ args.server);
    exit 2
  end;
  if not (Sys.file_exists args.out) then Sys.mkdir args.out 0o755;
  let store = Estima_store.Store.default () in
  (* The harness's own collections (base payloads, expectations) persist
     here across runs; the server never sees this directory. *)
  Estima_store.Store.set_dir store (Some (Filename.concat args.out "harness-store"));
  let wl = Inputs.make args.workload ~seed:args.seed ~seconds:args.seconds in
  let fit_counters = count_fits (fun () -> List.iter Inputs.complete wl.eager) in
  let running = ref None in
  at_exit (fun () -> Option.iter Proc.stop !running);
  (* Set-up, several times: server spawn to listening line, plus the
     warm-up pass that fills its caches.  The last server is timed. *)
  let setup_times =
    List.init setups (fun i ->
        let t0 = Unix.gettimeofday () in
        let server = Proc.spawn ~exe:args.server ~dir:args.out ~id:i in
        running := Some server;
        all_matched "warm-up" (Client.sequential ~port:server.port wl.warmup);
        let dt = Unix.gettimeofday () -. t0 in
        if i < setups - 1 then begin
          Proc.stop server;
          running := None
        end;
        dt)
  in
  let server = Option.get !running in
  let warm_counters = Proc.counters server in
  let calibration =
    Client.sequential ~port:server.port (List.init calibration_requests (fun _ -> wl.calibration))
  in
  all_matched "calibration" calibration;
  let cached_p50 = Stats.median (latencies calibration) in
  let before = Proc.counters server in
  let cpu_before = Proc.cpu_s server in
  let outcome = Client.run ~port:server.port ~seconds:args.seconds ~drain_s:60.0 wl.conns in
  let cpu = Proc.cpu_s server -. cpu_before in
  let after = Proc.counters server in
  let rss = Proc.peak_rss_mib server in
  Proc.stop server;
  running := None;
  (* Expectations for what was sent and not known up front. *)
  let unknown = Hashtbl.create 64 in
  List.iter
    (fun (s : Client.sample) ->
      if s.tpl.expected = None then Hashtbl.replace unknown s.tpl.line s.tpl)
    outcome.samples;
  let pool = Estima_par.Pool.create ~jobs:2 in
  Inputs.complete_all pool (List.of_seq (Hashtbl.to_seq_values unknown));
  Estima_par.Pool.shutdown pool;
  List.iter
    (fun (s : Client.sample) ->
      match (s.response, s.tpl.expected) with
      | Some got, Some expected ->
          s.matched <- Some (String.equal got expected);
          s.response <- None
      | _ -> ())
    outcome.samples;
  let samples = outcome.samples in
  (* Raw samples, one line per request: kind, due or send time (s after
     the start of the timed phase), latency (s), send lag (s), verified. *)
  write_file
    (Filename.concat args.out (Printf.sprintf "samples-%s-%d.tsv" wl.name args.seed))
    (String.concat ""
       (List.map
          (fun (s : Client.sample) ->
            Printf.sprintf "%s\t%.6f\t%.9f\t%.9f\t%b\n" (kind_label s.tpl.kind) (s.start -. outcome.t0)
              s.latency s.lag (s.matched = Some true))
          samples));
  let attempted = List.length samples in
  let mismatched =
    List.filter (fun (s : Client.sample) -> s.matched = Some false) samples
  in
  let failed = List.length mismatched + outcome.timed_out in
  List.iter
    (fun (s : Client.sample) -> fail "timed phase: %s request answered with unexpected bytes" (kind_label s.tpl.kind))
    (List.filteri (fun i _ -> i < 5) mismatched);
  if outcome.timed_out > 0 then fail "timed phase: %d requests unanswered" outcome.timed_out;
  (* Premise: which requests the caches must answer. *)
  let delta name = Proc.counter after name - Proc.counter before name in
  let requests = of_kind is_request samples in
  let count p = List.length (List.filter (fun (s : Client.sample) -> p s.tpl) samples) in
  let cold = count (fun t -> List.mem t.kind wl.cold_kinds) in
  let named = count (fun t -> t.kind = Generator.Workload) in
  let named_cold = if List.mem Generator.Workload wl.cold_kinds then named else 0 in
  let check what got want = if got <> want then fail "premise: %s = %d, expected %d" what got want in
  check "cache misses" (delta "estima_cache_misses_total") cold;
  check "cache hits" (delta "estima_cache_hits_total") (List.length requests - cold);
  check "store misses" (delta "estima_store_misses_total") named_cold;
  check "store hits" (delta "estima_store_hits_total") (named - named_cold);
  let shed =
    List.fold_left
      (fun acc n -> acc + delta n)
      0
      [
        "estima_shed_overload_total";
        "estima_shed_deadline_total";
        "estima_frame_too_large_total";
        "estima_connections_refused_total";
      ]
  in
  let verified = List.length (List.filter (fun (s : Client.sample) -> s.matched = Some true) samples) in
  let predicts = of_kind is_predict samples in
  let within_slo =
    List.length
      (List.filter (fun (s : Client.sample) -> s.matched = Some true && s.latency <= slo_s) predicts)
  in
  let e2e =
    [
      metric "setup_s" "s" (Stats.median setup_times)
        ~note:(Printf.sprintf "median of %d set-ups" setups);
      metric "throughput_rps" "req/s" (float_of_int verified /. outcome.elapsed)
        ~note:(Printf.sprintf "%d verified in %.3f s" verified outcome.elapsed);
      metric "predict_slo_share" "ratio"
        (float_of_int within_slo /. float_of_int (max 1 (List.length predicts)))
        ~note:(Printf.sprintf "%d of %d within %g ms" within_slo (List.length predicts) (ms slo_s));
      metric "server_cpu_ms_per_req" "ms" (ms cpu /. float_of_int attempted)
        ~note:(Printf.sprintf "%.2f s CPU" cpu);
      metric "server_peak_rss_mb" "MiB" rss ~note:"VmHWM";
    ]
  in
  let cached_predicts = of_kind (fun t -> is_predict t && not (List.mem t.kind wl.cold_kinds)) samples in
  let blocked =
    List.length (List.filter (fun (s : Client.sample) -> s.latency > 10.0 *. cached_p50) cached_predicts)
  in
  let lag = Stats.sorted (List.map (fun (s : Client.sample) -> s.lag) samples) in
  let lag_p = Stats.tail_percentile (Array.length lag) in
  let live =
    {
      Layers.cached_tcp_s = cached_p50;
      latency_p50_s = Stats.median (latencies (answered samples));
      live_layers =
        [
          metric "dispatch.cache_hit_ratio" "ratio"
            (let h = delta "estima_cache_hits_total" and m = delta "estima_cache_misses_total" in
             float_of_int h /. float_of_int (max 1 (h + m)));
          metric "dispatch.shed_total" "count" (float_of_int shed);
          metric "dispatch.hol_blocked_share" "ratio"
            (float_of_int blocked /. float_of_int (max 1 (List.length cached_predicts)))
            ~note:
              (Printf.sprintf "%d of %d cached predicts over %.3f ms" blocked
                 (List.length cached_predicts) (10.0 *. ms cached_p50));
          metric "store.hits" "count" (float_of_int (delta "estima_store_hits_total"));
          metric "store.misses" "count" (float_of_int (delta "estima_store_misses_total"));
          metric "load.send_lag_tail_ms" "ms"
            (ms (Stats.percentile lag lag_p))
            ~note:(Printf.sprintf "p%g of %d" lag_p (Array.length lag));
        ];
    }
  in
  let stem = Printf.sprintf "%s-%d" wl.name args.seed in
  let metrics =
    if args.trace then begin
      let spans, per_layer = Layers.run wl live in
      write_file (Filename.concat args.out ("spans-" ^ stem ^ ".json")) (Json.to_string spans ^ "\n");
      per_layer
    end
    else e2e
  in
  let correct = !failures = [] in
  List.iter (fun msg -> prerr_endline ("servebench: FAIL " ^ msg)) (List.rev !failures);
  let summary = summary wl ~seed:args.seed ~warm_counters ~fit_counters in
  write_file (Filename.concat args.out ("summary-" ^ stem ^ ".json")) (Json.to_string summary ^ "\n");
  (* Latency by request kind, median and tail: for reading a run.  They
     are not end-to-end metrics: on a two-vCPU virtual machine the
     sub-millisecond medians spread up to a quarter, and the tails 20-45%,
     between runs of one workload. *)
  let kinds =
    List.filter_map
      (fun (label, p) ->
        match of_kind p samples with
        | [] -> None
        | of_k ->
            let p50 = p50_ms "p50_ms" of_k and tail = tail_ms "tail_ms" of_k in
            Some
              ( label,
                Json.Obj
                  [
                    ("requests", Json.Int (List.length of_k));
                    ("p50_ms", Json.Float p50.value);
                    ("tail_ms", Json.Float tail.value);
                    ("tail", Json.String tail.note);
                  ] ))
      (("all", fun _ -> true)
      :: List.map
           (fun k -> (kind_label k, fun (t : Inputs.template) -> t.kind = k))
           Generator.[ Predict_v1; Predict_v2; Workload; Confidence; Malformed ])
  in
  let json_metric (m : Stats.metric) = (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]) in
  write_file
    (Filename.concat args.out (Printf.sprintf "result-%s-trace%d.json" stem (Bool.to_int args.trace)))
    (Json.to_string
       (Json.Obj
          [
            ("bench", Json.String "servebench");
            ("host", host_json ());
            ("workload", Json.String wl.name);
            ("seed", Json.Int args.seed);
            ("seconds", Json.Float args.seconds);
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("kinds", Json.Obj kinds);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : Stats.metric) ->
                     ( m.name,
                       Json.Obj
                         [
                           ("value", Json.Float m.value);
                           ("unit", Json.String m.unit_);
                           ("note", Json.String m.note);
                         ] ))
                   (if args.trace then e2e @ metrics else e2e)) );
            ("summary", summary);
            ("failures", Json.List (List.rev_map (fun m -> Json.String m) !failures));
          ])
    ^ "\n");
  Printf.printf "servebench %s seed %d, %g s, trace %b\n" wl.name args.seed args.seconds args.trace;
  Printf.printf "host %s\n" (Json.to_string (host_json ()));
  Printf.printf "requests %d attempted, %d failed\n" attempted failed;
  List.iter (fun (k, v) -> Printf.printf "  %-12s %s\n" k (Json.to_string v)) kinds;
  List.iter
    (fun (m : Stats.metric) -> Printf.printf "  %-40s %14.6g %-6s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  Printf.printf "summary %s\n" (Json.to_string summary);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map json_metric metrics));
          ]));
  exit (if correct then 0 else 1)

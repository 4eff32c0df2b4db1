(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (printed as text tables/series), then times the
   pipeline's building blocks with Bechamel.

   Usage:
     bench/main.exe                   run everything
     bench/main.exe T4 F8 ...         run selected experiments
     bench/main.exe --list            print the experiment ids and exit
     bench/main.exe --no-micro        skip the Bechamel microbenchmarks
     bench/main.exe --fit-timing      only report fit-search timing per
                                      pipeline stage (trace spans+counters)
     bench/main.exe --accuracy        backtest the validation corpus and
                                      print the T4-style accuracy table
     bench/main.exe --jobs N          run fit search and experiments on N
                                      domains (default: ESTIMA_JOBS or 1)
     bench/main.exe --store DIR       persist measurement series in the
                                      content-addressed store under DIR
     bench/main.exe --par-scaling [ID ...]
                                      time the reproduction (or the given
                                      experiments) at jobs in {1,2,4,cores},
                                      check the outputs are byte-identical,
                                      and write BENCH_par.json
     bench/main.exe --sim-scaling [ID ...]
                                      time each experiment cold (empty
                                      measurement store) then warm (same
                                      store dir), check byte-identity, and
                                      write BENCH_sim.json (default set:
                                      F1 F2 F5)
     bench/main.exe --serve-scaling   spawn estima_serve --tcp per cell of
                                      a jobs x clients grid, play a seeded
                                      Estima_load plan closed-loop with
                                      byte-exact verification, and write
                                      BENCH_serve.json (throughput, p50/
                                      p90/p99/max latency per cell) *)

open Estima_machine
open Estima_sim
open Estima_workloads
open Estima_counters
open Estima
module Json = Estima_obs.Json

let microbenchmarks () =
  let open Bechamel in
  let xs = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let ys = Array.map (fun x -> 1e6 *. (2.0 +. (6.0 *. x /. (x +. 8.0)))) xs in
  let fit_test kernel =
    Test.make ~name:("fit-" ^ kernel.Estima_kernels.Kernel.name)
      (Staged.stage (fun () -> ignore (Estima_kernels.Fit.fit kernel ~xs ~ys)))
  in
  let approximation_test =
    Test.make ~name:"approximation-full-selection"
      (Staged.stage (fun () ->
           ignore (Approximation.approximate ~xs ~ys ~target_max:48.0 ~require_nonnegative:true ())))
  in
  let engine_test =
    let spec = Stamp.genome in
    Test.make ~name:"simulator-genome-8-threads"
      (Staged.stage (fun () -> ignore (Engine.run ~seed:3 ~machine:Machines.opteron48 ~spec ~threads:8 ())))
  in
  let predict_test =
    let entry = Option.get (Suite.find "intruder") in
    let series =
      Collector.collect
        ~options:{ Collector.default_options with Collector.seed = 9; plugins = entry.Suite.plugins; repetitions = 1 }
        ~machine:(Machines.restrict_sockets Machines.opteron48 ~sockets:1)
        ~spec:entry.Suite.spec
        ~thread_counts:(Collector.default_thread_counts ~max:12)
        ()
    in
    Test.make ~name:"predictor-intruder-12-to-48"
      (Staged.stage (fun () ->
           ignore
             (Predictor.predict
                ~config:{ Predictor.default_config with Predictor.include_software = true }
                ~series ~target_max:48 ())))
  in
  let tests =
    Test.make_grouped ~name:"estima"
      (List.map fit_test Estima_kernels.Catalogue.all
      @ [ approximation_test; engine_test; predict_test ])
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Printf.printf "\n";
  Estima_repro.Render.heading "[BENCH] Bechamel microbenchmarks (monotonic clock)";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ estimate ] -> Printf.printf "%-36s %12.1f ns/run\n" name estimate
      | _ -> Printf.printf "%-36s (no estimate)\n" name)
    results;
  flush stdout

(* Fit-search timing: run one representative prediction under a trace
   recorder and print where the selection time goes — per-category spans,
   the factor fit, and the kernel-fit counters.  The instrumentation is
   enabled only here (a sink is installed), so the regular benchmark
   numbers are collected with tracing off. *)
let fit_timing () =
  let entry = Option.get (Suite.find "intruder") in
  let series =
    Collector.collect
      ~options:
        { Collector.default_options with Collector.seed = 9; plugins = entry.Suite.plugins; repetitions = 1 }
      ~machine:(Machines.restrict_sockets Machines.opteron48 ~sockets:1)
      ~spec:entry.Suite.spec
      ~thread_counts:(Collector.default_thread_counts ~max:12)
      ()
  in
  let recorder = Estima_obs.Recorder.create () in
  (* [quick_stat] sums every domain's minor allocation, so pool workers'
     share of the fit search counts too (each up to its last minor GC). *)
  let minor_words () = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = Sys.time () and w0 = minor_words () in
  let _prediction =
    Estima_obs.Recorder.record recorder (fun () ->
        Predictor.predict
          ~config:{ Predictor.default_config with Predictor.include_software = true }
          ~series ~target_max:48 ())
  in
  let elapsed = Sys.time () -. t0 and words = minor_words () -. w0 in
  Estima_repro.Render.heading "[BENCH] fit-search timing per stage (intruder, 12 -> 48 cores)";
  Format.printf "%a@." Estima_obs.Trace_render.pp_span_stats (Estima_obs.Recorder.span_stats recorder);
  Format.printf "@.counters:@.%a@." Estima_obs.Trace_render.pp_counters
    (Estima_obs.Recorder.counters recorder);
  Printf.printf "total predict time: %.3f ms (cpu), %.2f M minor words\n%!" (1e3 *. elapsed)
    (words /. 1e6)

(* ------------------------- accuracy table ------------------------- *)

(* The held-out backtest of the validation corpus (Estima_validate),
   printed as the T4-style accuracy table — the human-readable view of
   what `estima_cli validate` gates on.  No golden comparison and no
   differential here: this is the report, not the gate. *)
let accuracy () =
  Estima_repro.Render.heading
    "[BENCH] validation-corpus accuracy (measure 1 socket, predict full machine)";
  match Estima_validate.Corpus.run Estima_validate.Corpus.default with
  | Error d ->
      prerr_endline (Diag.render d);
      exit (Diag.exit_code d)
  | Ok reports ->
      print_string (Estima_validate.Report.table reports);
      print_newline ();
      print_string (Estima_validate.Report.summary_lines (Estima_validate.Report.summarize reports))

(* ----------------------- parallel scaling ------------------------- *)

let resolve_experiments ids =
  let ids = match ids with [] -> List.map fst Estima_repro.All.experiments | ids -> ids in
  List.map
    (fun id ->
      match Estima_repro.All.find id with
      | Some run -> (String.uppercase_ascii id, run)
      | None ->
          prerr_endline
            (Printf.sprintf "unknown experiment %S; valid ids: %s" id
               (String.concat ", " (List.map fst Estima_repro.All.experiments)));
          exit 1)
    ids

(* Host metadata stamped into every BENCH_*.json so trajectory files
   collected on different machines are comparable: available
   parallelism, compiler, and the commit the binary was built from
   ("unknown" outside a git checkout). *)
let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
      | exception _ -> "unknown")

(* The one BENCH writer: mode [name] ("par" for --par-scaling, ...)
   writes BENCH_<name>.json as {"bench": "<name>-scaling", "host": ...}
   followed by the mode's own members, pretty-printed. *)
let write_bench name fields =
  let host =
    Json.Obj
      [
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("git", Json.String (git_describe ()));
      ]
  in
  let file = Printf.sprintf "BENCH_%s.json" name in
  let doc = Json.Obj (("bench", Json.String (name ^ "-scaling")) :: ("host", host) :: fields) in
  Out_channel.with_open_bin file (fun oc -> output_string oc (Json.pretty doc));
  Printf.printf "wrote %s\n%!" file

(* Time the selected experiments at each jobs setting, cold-starting the
   measurement cache every run so the runs are comparable, and verify
   that every parallel run's output is byte-identical to jobs=1 —
   the determinism guarantee the parallel harness makes. *)
let par_scaling ids =
  let experiments = resolve_experiments ids in
  let cores = Domain.recommended_domain_count () in
  let jobs_settings = List.sort_uniq compare [ 1; 2; 4; cores ] in
  let run_once jobs =
    Estima_par.Fanout.set_jobs (Some jobs);
    Estima_repro.Lab.reset_cache ();
    let t0 = Unix.gettimeofday () in
    let (), output =
      Estima_repro.Render.with_capture (fun () -> Estima_repro.All.run_many experiments)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Estima_par.Fanout.set_jobs None;
    (wall, output)
  in
  Estima_repro.Render.heading "[BENCH] parallel scaling of the reproduction harness";
  Printf.printf "experiments: %s\ncores: %d\n\n" (String.concat ", " (List.map fst experiments)) cores;
  let runs =
    List.map
      (fun jobs ->
        let wall, output = run_once jobs in
        Printf.printf "jobs=%-3d %8.2f s  (%d bytes of output)\n%!" jobs wall (String.length output);
        (jobs, wall, output))
      jobs_settings
  in
  let _, base_wall, base_output = List.hd runs in
  let rows =
    List.map
      (fun (jobs, wall, output) ->
        let identical = String.equal output base_output in
        if not identical then
          Printf.printf "WARNING: jobs=%d output differs from jobs=1 (%d vs %d bytes)\n" jobs
            (String.length output) (String.length base_output);
        (* More domains than cores cannot speed anything up: flag the row
           so a trajectory diff reads it as "host too small", not as a
           parallelism regression. *)
        Json.Obj
          [
            ("jobs", Json.Int jobs);
            ("wall_s", Json.Float wall);
            ("speedup_vs_jobs1", Json.Float (base_wall /. wall));
            ("output_bytes", Json.Int (String.length output));
            ("output_identical_to_jobs1", Json.Bool identical);
            ("parallelism_unavailable", Json.Bool (jobs > cores));
          ])
      runs
  in
  let all_identical =
    List.for_all (fun (_, _, output) -> String.equal output base_output) runs
  in
  Printf.printf "\noutputs byte-identical across jobs settings: %b\n" all_identical;
  write_bench "par"
    [
      ("cores", Json.Int cores);
      ("experiments", Json.List (List.map (fun (id, _) -> Json.String id) experiments));
      ("runs", Json.List rows);
      ("outputs_identical", Json.Bool all_identical);
    ];
  if not all_identical then exit 1

(* ------------------------ simulation scaling ---------------------- *)

(* Cold-vs-warm trajectory of the measurement plane: run each experiment
   against an initially empty disk store (cold — every series is
   simulated, then persisted), drop the in-memory tier, and run it again
   over the same directory (warm — every series is read back).  Outputs
   must be byte-identical; the wall-clock pair per experiment is the
   number BENCH_sim.json tracks over time. *)
let sim_scaling ids =
  let experiments = resolve_experiments (match ids with [] -> [ "F1"; "F2"; "F5" ] | ids -> ids) in
  let store = Estima_store.Store.default () in
  let saved_dir = Estima_store.Store.dir store in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "estima-sim-scaling.%d" (Unix.getpid ()))
  in
  Estima_store.Store.set_dir store (Some dir);
  Estima_repro.Render.heading "[BENCH] cold vs warm simulation (measurement store)";
  Printf.printf "experiments: %s\nstore: %s\n\n"
    (String.concat ", " (List.map fst experiments))
    dir;
  let time_one (id, run) =
    (* reset_cache between the two runs drops the in-memory tier, so the
       warm run exercises the disk path, not the promise table. *)
    Estima_repro.Lab.reset_cache ();
    let t0 = Unix.gettimeofday () in
    let (), cold_output = Estima_repro.Render.with_capture run in
    let cold_s = Unix.gettimeofday () -. t0 in
    Estima_repro.Lab.reset_cache ();
    let t1 = Unix.gettimeofday () in
    let (), warm_output = Estima_repro.Render.with_capture run in
    let warm_s = Unix.gettimeofday () -. t1 in
    let identical = String.equal cold_output warm_output in
    if not identical then
      Printf.printf "WARNING: %s warm output differs from cold (%d vs %d bytes)\n" id
        (String.length warm_output) (String.length cold_output);
    Printf.printf "%-4s cold %8.2f s   warm %8.2f s   (%.1fx)\n%!" id cold_s warm_s
      (cold_s /. Float.max 1e-9 warm_s);
    (id, cold_s, warm_s, identical)
  in
  let runs = List.map time_one experiments in
  Estima_store.Store.set_dir store saved_dir;
  let all_identical = List.for_all (fun (_, _, _, i) -> i) runs in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let cold_total = total (fun (_, c, _, _) -> c) and warm_total = total (fun (_, _, w, _) -> w) in
  Printf.printf "\ntotal: cold %.2f s, warm %.2f s; outputs byte-identical: %b\n" cold_total
    warm_total all_identical;
  let rows =
    List.map
      (fun (id, cold_s, warm_s, identical) ->
        Json.Obj
          [
            ("experiment", Json.String id);
            ("cold_s", Json.Float cold_s);
            ("warm_s", Json.Float warm_s);
            ("warm_speedup", Json.Float (cold_s /. Float.max 1e-9 warm_s));
            ("outputs_identical", Json.Bool identical);
          ])
      runs
  in
  write_bench "sim"
    [
      ("runs", Json.List rows);
      ("cold_total_s", Json.Float cold_total);
      ("warm_total_s", Json.Float warm_total);
      ("outputs_identical", Json.Bool all_identical);
    ];
  if not all_identical then exit 1

(* ------------------------- serving scaling ------------------------ *)

(* Throughput and tail latency of estima_serve over TCP, across a jobs ×
   clients grid: for each cell a fresh server is spawned on a
   kernel-assigned port, a seeded Estima_load plan is played closed-loop
   against it, and every response is verified byte-for-byte — a cell
   only contributes numbers if it is also correct.  BENCH_serve.json is
   the trajectory file tail-latency regressions show up in. *)
let serve_scaling () =
  let module Generator = Estima_load.Generator in
  let module Driver = Estima_load.Driver in
  let module Report = Estima_load.Report in
  let exe =
    match Driver.locate_serve_exe () with
    | Some exe -> exe
    | None ->
        prerr_endline "serve-scaling: cannot find estima_serve.exe next to bench/main.exe";
        exit 1
  in
  let machine = Machines.restrict_sockets Machines.opteron48 ~sockets:1 in
  let target = Machines.opteron48 in
  let base = Config.make ~measured_on:machine ~target () in
  let payloads = Generator.suite_payloads ~machine [ "kmeans" ] in
  let requests_per_client = 15 in
  let jobs_settings = [ 1; 4 ] in
  let client_settings = [ 1; 2; 4 ] in
  Estima_repro.Render.heading "[BENCH] estima_serve TCP throughput and tail latency";
  Printf.printf "requests/client: %d, payloads: kmeans, closed loop\n\n" requests_per_client;
  let cells =
    List.concat_map
      (fun jobs ->
        List.map
          (fun clients ->
            let plan =
              Generator.plan ~payloads ~machine ~target ~base ~seed:42 ~clients
                ~requests_per_client ()
            in
            let server =
              Driver.spawn_tcp_server ~exe ~args:[ "--jobs"; string_of_int jobs ] ()
            in
            let outcome =
              Fun.protect
                ~finally:(fun () -> Driver.stop_server server)
                (fun () ->
                  Driver.run
                    (Driver.Tcp { host = server.Driver.host; port = server.Driver.port })
                    plan)
            in
            let report = Report.make plan outcome in
            let q p =
              Estima_obs.Metrics.Histogram.snapshot_quantile report.Report.latency p
            in
            let max_s = report.Report.latency.Estima_obs.Metrics.Histogram.max in
            Printf.printf
              "jobs=%-3d clients=%-3d %8.1f req/s   p50 %8.2f ms   p99 %8.2f ms   max %8.2f \
               ms   clean=%b\n\
               %!"
              jobs clients report.Report.throughput_rps (1e3 *. q 0.5) (1e3 *. q 0.99)
              (1e3 *. max_s) (Report.clean report);
            ( report,
              Json.Obj
                [
                  ("jobs", Json.Int jobs);
                  ("clients", Json.Int clients);
                  ("requests", Json.Int report.Report.requests);
                  ("clean", Json.Bool (Report.clean report));
                  ("throughput_rps", Json.Float report.Report.throughput_rps);
                  ("p50_s", Json.Float (q 0.5));
                  ("p90_s", Json.Float (q 0.9));
                  ("p99_s", Json.Float (q 0.99));
                  ("max_s", Json.Float max_s);
                  ( "kinds",
                    Json.Obj
                      (List.map
                         (fun (kind, p50, p99) ->
                           (kind, Json.Obj [ ("p50_s", Json.Float p50); ("p99_s", Json.Float p99) ]))
                         (Report.kind_quantiles report)) );
                ] ))
          client_settings)
      jobs_settings
  in
  let all_clean = List.for_all (fun (report, _) -> Report.clean report) cells in
  Printf.printf "\nall cells byte-clean: %b\n" all_clean;
  write_bench "serve"
    [
      ("requests_per_client", Json.Int requests_per_client);
      ("runs", Json.List (List.map snd cells));
      ("all_clean", Json.Bool all_clean);
    ];
  if not all_clean then exit 1

(* ----------------------------- driver ----------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N / -j N and --store DIR apply to every mode; consumed by
     the shared extractors (same spellings and errors as the cmdliner
     binaries) before dispatch. *)
  let jobs, args = Estima.Config.Args.extract_jobs args in
  Estima.Config.Args.apply_jobs jobs;
  let store, args = Estima.Config.Args.extract_store args in
  Estima.Config.Args.apply_store store;
  if List.mem "--list" args then
    List.iter (fun (id, _) -> print_endline id) Estima_repro.All.experiments
  else if List.mem "--fit-timing" args then fit_timing ()
  else if List.mem "--accuracy" args then accuracy ()
  else if List.mem "--par-scaling" args then
    par_scaling (List.filter (fun a -> a <> "--par-scaling") args)
  else if List.mem "--sim-scaling" args then
    sim_scaling (List.filter (fun a -> a <> "--sim-scaling") args)
  else if List.mem "--serve-scaling" args then serve_scaling ()
  else begin
    let micro = not (List.mem "--no-micro" args) in
    let ids = List.filter (fun a -> a <> "--no-micro") args in
    let t0 = Unix.gettimeofday () in
    (match ids with
    | [] -> Estima_repro.All.run_all ()
    | ids -> Estima_repro.All.run_many (resolve_experiments ids));
    let hits, misses = Estima_repro.Lab.cache_stats () in
    Printf.printf "\n[reproduction complete in %.0f s; measurement cache: %d hits, %d sweeps]\n%!"
      (Unix.gettimeofday () -. t0) hits misses;
    if micro then microbenchmarks ()
  end

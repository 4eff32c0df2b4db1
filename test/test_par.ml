(* Tests for the domain-parallel fan-out: pool mechanics (ordering,
   exceptions, reuse, nesting) and the headline guarantee that a parallel
   run is byte-identical to the sequential pipeline — predictions, trace
   JSON and repro output alike. *)

open Estima_machine
open Estima_workloads
open Estima
module Pool = Estima_par.Pool
module Fanout = Estima_par.Fanout
module Trace = Estima_obs.Trace

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Pin the jobs knob for the duration of [f], restoring the environment
   default afterwards (the suite may itself run under ESTIMA_JOBS). *)
let with_jobs n f = Fun.protect ~finally:(fun () -> Fanout.set_jobs None) (fun () ->
    Fanout.set_jobs (Some n);
    f ())

(* A data-dependent busy loop, so task durations vary and completion
   order genuinely differs from submission order. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to 200 * (n + 1) do
    acc := !acc + (i mod 7)
  done;
  Sys.opaque_identity !acc

let opteron1s = Machines.restrict_sockets Machines.opteron48 ~sockets:1

(* Through the shared store: test_fit_bits pins the predictions of the
   same series and reuses these collections. *)
let collect_entry entry =
  Api.collect ~repetitions:1 ~plugins:entry.Suite.plugins ~machine:opteron1s ~spec:entry.Suite.spec
    ~max_threads:12 ()

let predict_entry entry series =
  match
    Predictor.predict
      ~config:
        { Predictor.default_config with Predictor.include_software = entry.Suite.plugins <> [] }
      ~series ~target_max:48 ()
  with
  | Ok p -> p
  | Error d -> Alcotest.failf "predict %s: %s" entry.Suite.spec.Estima_sim.Spec.name (Diag.render d)

let check_bitwise name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s differs at %d: %h vs %h" name i x b.(i))
    a

let summary p = Format.asprintf "%a" Predictor.pp_summary p

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_pool_empty_and_singleton () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map pool [||] ~f:(fun x -> x));
      Alcotest.(check (array int)) "singleton" [| 14 |] (Pool.map pool [| 7 |] ~f:(fun x -> 2 * x)))

let test_pool_jobs1_sequential () =
  let pool = Pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      Alcotest.(check int) "size 1" 1 (Pool.size pool);
      let order = ref [] in
      let out =
        Pool.map pool [| 0; 1; 2; 3 |] ~f:(fun i ->
            order := i :: !order;
            i * i)
      in
      Alcotest.(check (array int)) "results" [| 0; 1; 4; 9 |] out;
      (* jobs = 1 runs inline, so execution order is submission order. *)
      Alcotest.(check (list int)) "inline order" [ 0; 1; 2; 3 ] (List.rev !order))

exception Boom of int

let test_pool_exception_and_reuse () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let xs = Array.init 16 (fun i -> i) in
      (* Several tasks fail; the lowest-index failure must win. *)
      (match
         Pool.map pool xs ~f:(fun i ->
             ignore (spin (15 - i));
             if i >= 5 then raise (Boom i);
             i)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ()
      | exception Boom i -> Alcotest.failf "lowest-index failure is 5, got Boom %d" i);
      (* The pool survives task failures and stays usable. *)
      let out = Pool.map pool xs ~f:(fun i -> i + 1) in
      Alcotest.(check (array int)) "usable after exception" (Array.map (fun i -> i + 1) xs) out;
      (* [run] reports per-task outcomes without raising. *)
      let outcomes = Pool.run pool [| 0; 1; 2 |] ~f:(fun i -> if i = 1 then raise (Boom 1) else i) in
      (match outcomes with
      | [| Ok 0; Error (Boom 1, _); Ok 2 |] -> ()
      | _ -> Alcotest.fail "run outcomes wrong"))

let test_pool_nested_map_raises () =
  let pool = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      (match Pool.map pool [| 0; 1 |] ~f:(fun _ -> Pool.map pool [| 0 |] ~f:(fun x -> x)) with
      | _ -> Alcotest.fail "nested map accepted"
      | exception Failure _ -> ());
      (* ... and the failure did not wedge the pool. *)
      Alcotest.(check (array int)) "usable after nested failure" [| 1; 2 |]
        (Pool.map pool [| 0; 1 |] ~f:(fun i -> i + 1)))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.map pool [| 1 |] ~f:(fun x -> x) with
  | _ -> Alcotest.fail "map after shutdown accepted"
  | exception Failure _ -> ()

let test_pool_ordering_random_durations =
  QCheck.Test.make ~name:"pool map keeps submission order under random durations" ~count:30
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 20))
    (fun durations ->
      let xs = Array.of_list durations in
      let pool = Pool.create ~jobs:4 in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          let out =
            Pool.map pool (Array.mapi (fun i d -> (i, d)) xs) ~f:(fun (i, d) ->
                ignore (spin d);
                i)
          in
          out = Array.init (Array.length xs) (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Fanout: jobs knob and nesting                                       *)
(* ------------------------------------------------------------------ *)

let test_jobs_knob () =
  let original = Sys.getenv_opt "ESTIMA_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ESTIMA_JOBS" (Option.value ~default:"" original);
      Fanout.set_jobs None)
    (fun () ->
      Fanout.set_jobs None;
      Unix.putenv "ESTIMA_JOBS" "3";
      Alcotest.(check int) "env value" 3 (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "not-a-number";
      Alcotest.(check int) "malformed env falls back to 1" 1 (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "0";
      Alcotest.(check int) "non-positive env falls back to 1" 1 (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "";
      Alcotest.(check int) "empty env defaults to the host parallelism"
        (Domain.recommended_domain_count ())
        (Fanout.jobs ());
      Unix.putenv "ESTIMA_JOBS" "2";
      Fanout.set_jobs (Some 5);
      Alcotest.(check int) "override beats env" 5 (Fanout.jobs ());
      Fanout.set_jobs None;
      Alcotest.(check int) "None reverts to env" 2 (Fanout.jobs ());
      match Fanout.set_jobs (Some 0) with
      | () -> Alcotest.fail "set_jobs 0 accepted"
      | exception Invalid_argument _ -> ())

let test_fanout_nested_inlines () =
  with_jobs 4 (fun () ->
      (* An outer fan-out whose tasks fan out again: the inner call must
         detect it is inside a pool task and run inline rather than
         deadlock or raise. *)
      let out =
        Fanout.map [| 0; 10; 20 |] ~f:(fun base ->
            Array.fold_left ( + ) 0 (Fanout.map [| 1; 2; 3 |] ~f:(fun d -> base + d)))
      in
      Alcotest.(check (array int)) "nested totals" [| 6; 36; 66 |] out)

let test_fanout_consume_order_and_exception () =
  with_jobs 4 (fun () ->
      let seen = ref [] in
      Fanout.map_consume
        (Array.init 12 (fun i -> i))
        ~f:(fun i ->
          ignore (spin (11 - i));
          i)
        ~consume:(fun i -> seen := i :: !seen);
      Alcotest.(check (list int)) "consume in submission order" (List.init 12 (fun i -> i))
        (List.rev !seen);
      (* On failure, consume still sees every earlier result first. *)
      let seen = ref [] in
      (match
         Fanout.map_consume
           (Array.init 8 (fun i -> i))
           ~f:(fun i -> if i = 5 then raise (Boom i) else i)
           ~consume:(fun i -> seen := i :: !seen)
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 5 -> ());
      Alcotest.(check (list int)) "prefix consumed before re-raise" [ 0; 1; 2; 3; 4 ]
        (List.rev !seen))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel == sequential                                 *)
(* ------------------------------------------------------------------ *)

(* The headline guarantee, checked on every workload of the suite: the
   prediction a user sees (numbers and rendered summary) is bitwise
   independent of the jobs setting. *)
let test_predictions_byte_identical () =
  List.iter
    (fun entry ->
      let series = collect_entry entry in
      let seq = with_jobs 1 (fun () -> predict_entry entry series) in
      let par = with_jobs 4 (fun () -> predict_entry entry series) in
      let name = entry.Suite.spec.Estima_sim.Spec.name in
      check_bitwise (name ^ " predicted times") seq.Predictor.predicted_times
        par.Predictor.predicted_times;
      check_bitwise (name ^ " stalls per core") seq.Predictor.stalls_per_core
        par.Predictor.stalls_per_core;
      Alcotest.(check string) (name ^ " rendered summary") (summary seq) (summary par))
    Suite.all

(* Trace byte-identity needs a deterministic clock: events carry
   timestamps, and wall time is the one thing parallelism does change. *)
let trace_json entry series jobs =
  with_jobs jobs (fun () ->
      Trace.set_clock (fun () -> 0L);
      Fun.protect ~finally:(fun () -> Trace.set_clock Trace.default_clock) (fun () ->
          let recorder = Estima_obs.Recorder.create () in
          ignore (Estima_obs.Recorder.record recorder (fun () -> predict_entry entry series));
          Estima_obs.Trace_render.json_of_recorder recorder))

let test_traces_byte_identical () =
  List.iter
    (fun name ->
      let entry = Option.get (Suite.find name) in
      let series = collect_entry entry in
      let seq = trace_json entry series 1 in
      let par = trace_json entry series 4 in
      Alcotest.(check string) (name ^ " trace JSON") seq par)
    [ "intruder"; "kmeans"; "vacation-low" ]

let test_repro_output_byte_identical () =
  (* Two experiments through [run_many], so the jobs=4 run exercises the
     real experiment-level fan-out: concurrent experiments, captured
     output printed in submission order, the Lab cache shared across
     domains. *)
  let entries =
    List.map (fun id -> (id, Option.get (Estima_repro.All.find id))) [ "F1"; "F2" ]
  in
  let output jobs =
    with_jobs jobs (fun () ->
        snd (Estima_repro.Render.with_capture (fun () -> Estima_repro.All.run_many entries)))
  in
  let seq = output 1 in
  let par = output 4 in
  Alcotest.(check bool) "experiments printed something" true (String.length seq > 0);
  Alcotest.(check string) "F1+F2 text output" seq par

(* ------------------------------------------------------------------ *)
(* Repro.All lookup                                                    *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_run_one_unknown_lists_all_ids () =
  match Estima_repro.All.run_one "NOPE" with
  | Ok () -> Alcotest.fail "unknown id accepted"
  | Error msg ->
      Alcotest.(check bool) "names the offender" true (contains ~sub:"\"NOPE\"" msg);
      List.iter
        (fun (id, _) ->
          if not (contains ~sub:id msg) then
            Alcotest.failf "error message omits valid id %s: %s" id msg)
        Estima_repro.All.experiments

let test_find_case_insensitive () =
  List.iter
    (fun (id, _) ->
      List.iter
        (fun variant ->
          if Estima_repro.All.find variant = None then
            Alcotest.failf "lookup of %S (for %s) failed" variant id)
        [ id; String.lowercase_ascii id; String.capitalize_ascii (String.lowercase_ascii id) ])
    Estima_repro.All.experiments;
  Alcotest.(check bool) "unknown id is None" true (Estima_repro.All.find "nope" = None)

let suite =
  [
    Alcotest.test_case "pool: empty and singleton" `Quick test_pool_empty_and_singleton;
    Alcotest.test_case "pool: jobs=1 runs inline sequentially" `Quick test_pool_jobs1_sequential;
    Alcotest.test_case "pool: lowest-index exception, then reusable" `Quick
      test_pool_exception_and_reuse;
    Alcotest.test_case "pool: nested map raises, pool survives" `Quick test_pool_nested_map_raises;
    Alcotest.test_case "pool: shutdown is idempotent" `Quick test_pool_shutdown_idempotent;
    QCheck_alcotest.to_alcotest test_pool_ordering_random_durations;
    Alcotest.test_case "fanout: jobs knob (override, env, malformed)" `Quick test_jobs_knob;
    Alcotest.test_case "fanout: nested fan-out runs inline" `Quick test_fanout_nested_inlines;
    Alcotest.test_case "fanout: consume order and failure prefix" `Quick
      test_fanout_consume_order_and_exception;
    Alcotest.test_case "determinism: predictions bitwise across jobs (all workloads)" `Slow
      test_predictions_byte_identical;
    Alcotest.test_case "determinism: trace JSON byte-identical across jobs" `Slow
      test_traces_byte_identical;
    Alcotest.test_case "determinism: repro run_many output byte-identical across jobs" `Slow
      test_repro_output_byte_identical;
    Alcotest.test_case "repro: unknown id error lists every valid id" `Quick
      test_run_one_unknown_lists_all_ids;
    Alcotest.test_case "repro: experiment lookup is case-insensitive" `Quick
      test_find_case_insensitive;
  ]

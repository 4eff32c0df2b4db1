(* Bit-pin gate for the kernel fitter.

   Every prediction runs through Fit.fit -> Lm.minimize -> Qr, so any
   change to the fitter's arithmetic (a rewritten Float.pow, a
   reassociated sum, a fused multiply-add) shows up as a different
   prediction for at least one workload.  This test pins, for every suite
   workload, one MD5 of the rendered Api.predict text and one of the exact
   bits of the predicted curve, collected
   the way estima_serve's "workload" op collects it (12-core window on
   one Opteron socket, seed 42, target opteron48 with the service's
   default config), plus one 20-resample confidence block.  One
   repetition per point keeps collection cheap.

   The blessed digests live in golden/fit_bits.txt; bless by deleting
   the file and copying the printed actual contents in. *)

open Estima
module Lab = Estima_repro.Lab
module Suite = Estima_workloads.Suite
module Machines = Estima_machine.Machines

let window = 12

let config = Config.make ~measured_on:Lab.opteron_1socket ~target:Machines.opteron48 ()

let target_max = Estima_machine.Topology.cores Machines.opteron48

(* test_par collects the same series for its jobs-identity check; both
   go through the shared store, so whichever runs second is a hit. *)
let series (entry : Suite.entry) =
  Api.collect ~repetitions:1 ~plugins:entry.Suite.plugins ~machine:Lab.opteron_1socket
    ~spec:entry.Suite.spec ~max_threads:window ()

let ok_or_fail what = function
  | Ok v -> v
  | Error d -> Alcotest.failf "%s: %s" what (Diag.render d)

(* The exact text estima_cli predict prints and estima_serve returns. *)
let render_prediction p =
  String.concat ""
    [
      Api.render_summary p;
      "\n\n";
      Api.rows_header;
      "\n";
      String.concat "\n" (Api.render_rows p);
      "\n\nprediction: ";
      Api.render_verdict p;
      "\n";
    ]

let render_confidence p c =
  String.concat "\n"
    (Api.render_confidence_summary c
    :: Api.confidence_rows_header c
    :: (Api.render_confidence_rows p c @ [ Api.render_confidence_verdict c; "" ]))

let md5 s = Digest.to_hex (Digest.string s)

(* The rendered text rounds every number, so a last-bit drift in a fitted
   coefficient can hide behind it; the exact bits of the predicted curve
   cannot. *)
let md5_bits arrays =
  md5
    (String.concat " "
       (List.concat_map (fun a -> List.map (Printf.sprintf "%h") (Array.to_list a)) arrays))

let confidence_workload = "intruder"

let actual_lines () =
  let predictions =
    List.map
      (fun (entry : Suite.entry) ->
        let name = entry.Suite.spec.Estima_sim.Spec.name in
        let p = ok_or_fail name (Api.predict ~config ~series:(series entry) ~target_max ()) in
        Printf.sprintf "predict %s %s %s" name (md5 (render_prediction p))
          (md5_bits [ p.Api.Prediction.predicted_times; p.Api.Prediction.stalls_per_core ]))
      Suite.all
  in
  let confidence =
    let entry = Option.get (Suite.find confidence_workload) in
    let p, c =
      ok_or_fail "predict_with_confidence"
        (Api.predict_with_confidence ~config ~resamples:20 ~seed:42 ~level:0.90
           ~series:(series entry) ~target_max ())
    in
    let band_bits =
      Array.concat
        (List.map
           (fun (b : Api.Confidence.band) -> [| b.Api.Confidence.lo; b.median; b.hi |])
           (Array.to_list c.Api.Confidence.bands))
    in
    Printf.sprintf "confidence %s %s %s" confidence_workload (md5 (render_confidence p c))
      (md5_bits [ band_bits ])
  in
  predictions @ [ confidence ]

let golden_path () =
  match List.find_opt Sys.file_exists [ "golden"; "test/golden" ] with
  | Some dir -> Filename.concat dir "fit_bits.txt"
  | None -> Alcotest.fail "test/golden not reachable from the test's working directory"

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (if line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let test_digests_pinned () =
  let actual = actual_lines () in
  let path = golden_path () in
  if not (Sys.file_exists path) then
    Alcotest.failf "golden %s missing; expected contents:\n%s\n" path (String.concat "\n" actual)
  else
    let expected = read_lines path in
    if actual <> expected then
      Alcotest.failf "fitter output drifted from %s; drifted lines:\n%s" path
        (String.concat "\n" (List.filter (fun line -> not (List.mem line expected)) actual))

let suite = [ ("rendered predictions are bit-pinned", `Slow, test_digests_pinned) ]

(* The three serving workloads, built from the seed.

   Every distinct request is a [template]: its frame and the response
   line the server must send.  Expected responses always come from
   [Estima_load.Generator], which computes them through the same Api
   calls and Protocol builders the server uses.  Templates whose
   expectation is expensive and which a run may never send (serve-cold's
   variants, the simulator collections) are completed lazily, after the
   timed phase, for the templates actually sent.  The harness builds
   those frames itself, so [complete] checks them against the frame the
   Generator builds for the same input. *)

module Generator = Estima_load.Generator
module Json = Estima_service.Json
module Rng = Estima_numerics.Rng
module Machines = Estima_machine.Machines
module Series = Estima_counters.Series
module Sample = Estima_counters.Sample

(* The estima_serve defaults: measured on one Opteron socket, extrapolated
   to the full 48-core machine. *)
let machine = Machines.restrict_sockets Machines.opteron48 ~sockets:1

let target = Machines.opteron48

let base = Estima.Config.make ~measured_on:machine ~target ()

(* Bootstrap resamples per confidence request.  serve-cold sends one
   confidence request in [confidence_every], so refits are 20 of every
   39 + 21 fits, a third of its fit work.  Rare, long confidence requests
   keep the all-kinds p90 inside the plain predicts. *)
let confidence_resamples = 20

let confidence_every = 40

type source = Csv of Generator.payload | Name of string | Junk

type template = {
  kind : Generator.kind;
  source : source;
  line : string;
  mutable expected : string option;
}

(* The frame layout of Generator.predict_line, for the templates whose
   expectation is computed after the run. *)
let frame kind source =
  let id = ("id", Json.Int 1) and v2 = ("v", Json.Int 2) and op = ("op", Json.String "predict") in
  let csv (p : Generator.payload) = [ ("csv", Json.String p.csv); ("spec", Json.String p.spec_name) ] in
  let members =
    match (kind, source) with
    | Generator.Predict_v1, Csv p -> id :: op :: csv p
    | Generator.Predict_v2, Csv p -> id :: v2 :: op :: csv p
    | Generator.Confidence, Csv p ->
        (id :: v2 :: op :: csv p) @ [ ("confidence", Json.Int confidence_resamples) ]
    | Generator.Workload, Name n -> [ id; op; ("workload", Json.String n) ]
    | _ -> invalid_arg "Inputs.frame: kind does not match source"
  in
  Json.to_string (Json.Obj members)

let template kind source = { kind; source; line = frame kind source; expected = None }

let only kind =
  let none = { Generator.v1 = 0; v2 = 0; workload = 0; confidence = 0; malformed = 0 } in
  match kind with
  | Generator.Predict_v1 -> { none with v1 = 1 }
  | Generator.Predict_v2 -> { none with v2 = 1 }
  | Generator.Confidence -> { none with confidence = 1 }
  | Generator.Workload -> { none with workload = 1 }
  | Generator.Malformed -> { none with malformed = 1 }

let generate ?(payloads = []) ?(workloads = []) ~seed ~count kind =
  (Generator.plan ~mix:(only kind) ~confidence_resamples ~workloads ~payloads ~machine ~target
     ~base ~seed ~clients:1 ~requests_per_client:count ())
    .Generator.streams.(0)

(* Fill in [t.expected] from the Generator; a no-op when already known. *)
let complete t =
  if t.expected = None then begin
    let r =
      match t.source with
      | Csv p -> (generate ~payloads:[ p ] ~seed:0 ~count:1 t.kind).(0)
      | Name n -> (generate ~workloads:[ n ] ~seed:0 ~count:1 t.kind).(0)
      | Junk -> invalid_arg "Inputs.complete: malformed templates are built complete"
    in
    if not (String.equal r.Generator.line t.line) then
      failwith (Printf.sprintf "servebench: frame differs from the Generator's: %s" t.line);
    t.expected <- Some r.Generator.expected
  end

(* Complete many templates on [pool]: each expectation is a full pipeline
   run (or a collection), and they are independent. *)
let complete_all pool templates =
  let todo = Array.of_list (List.filter (fun t -> t.expected = None) templates) in
  ignore (Estima_par.Pool.map pool todo ~f:complete)

let malformed ~seed ~count (p : Generator.payload) =
  Array.map
    (fun (r : Generator.request) ->
      { kind = Generator.Malformed; source = Junk; line = r.line; expected = Some r.expected })
    (generate ~payloads:[ p ] ~seed ~count Generator.Malformed)

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)
(* ------------------------------------------------------------------ *)

let base_names = [ "kmeans"; "genome"; "intruder"; "ssca2" ]

(* The Generator's four default payloads (12-core window, 3 repetitions). *)
let base_payloads () = Array.of_list (Generator.suite_payloads ~machine base_names)

let series_of (p : Generator.payload) =
  match Estima.Api.series_of_csv ~file:"<wire>" ~spec_name:p.spec_name ~machine p.csv with
  | Ok s -> s
  | Error d -> failwith ("servebench: base payload does not parse: " ^ Estima.Diag.render d)

(* A variant of a base series: every measured quantity scaled by its own
   lognormal factor (median 1, 2% spread), so the numbers differ from all
   other payloads and no cache keyed on content can answer it. *)
let variant rng (s : Series.t) ~spec_name =
  let f x = x *. Rng.lognormal_factor rng ~sigma:0.02 in
  let sample (x : Sample.t) =
    {
      x with
      Sample.time_seconds = f x.time_seconds;
      cycles = f x.cycles;
      useful_cycles = f x.useful_cycles;
      counters = List.map (fun (k, v) -> (k, f v)) x.counters;
      software = List.map (fun (k, v) -> (k, f v)) x.software;
    }
  in
  let series = Series.make ~machine ~spec_name (Array.to_list (Array.map sample s.samples)) in
  { Generator.spec_name; csv = Estima_counters.Csv_export.series_to_csv series }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* How one connection sends.  A closed-loop connection sends its next
   item [think ()] seconds after the previous response arrived; a
   scheduled one sends each item at its offset from the start of the
   timed phase, or when the previous response arrives if that is later;
   an open-loop one sends at a fixed rate whatever the responses. *)
type pacing =
  | Closed of { next : unit -> template; think : unit -> float }
  | Scheduled of (float * template) array
  | Open of { rate : float; next : unit -> template }

type conn = { label : string; pacing : pacing }

type t = {
  name : string;
  warmup : template list;  (** Sent once, in order, before timing. *)
  calibration : template;  (** A frame the warm-up made a cache hit. *)
  conns : conn array;
  eager : template list;  (** Completed before the run: everything the timed phase may send from cache. *)
  cold_kinds : Generator.kind list;  (** Kinds the result cache cannot answer: the premise. *)
  prefix : template list;  (** The first inputs, for the timing-free summary. *)
  replay : template list;  (** What the traced run replays after the warm-up. *)
}

let names = [ "serve-hot"; "serve-cold"; "serve-mixed" ]

let summary_prefix = 1000

(* A fixed-length cycle drawn from weighted choices. *)
let cycle rng ~length choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  Array.init length (fun _ ->
      let roll = Rng.int rng total in
      let rec pick acc = function
        | [ (_, f) ] -> f rng
        | (w, f) :: rest -> if roll < acc + w then f rng else pick (acc + w) rest
        | [] -> assert false
      in
      pick 0 choices)

let cycling items =
  let i = ref 0 in
  fun () ->
    let t = items.(!i mod Array.length items) in
    incr i;
    t

let pick_payload templates rng = templates.(Rng.int rng (Array.length templates))

(* serve-hot: every timed request is a result-cache hit or a typed parse
   error, v1:v2:malformed 5:3:1 over the four default payloads, so the
   time goes to wire, protocol, ingest and dispatch and the fitter does
   no work. *)
let hot ~seed ~payloads =
  let rng = Rng.create seed in
  let v1 = Array.map (fun p -> template Generator.Predict_v1 (Csv p)) payloads in
  let v2 = Array.map (fun p -> template Generator.Predict_v2 (Csv p)) payloads in
  let junk = malformed ~seed ~count:64 payloads.(0) in
  let streams =
    Array.init 2 (fun _ ->
        cycle (Rng.split rng) ~length:4096
          [ (5, pick_payload v1); (3, pick_payload v2); (1, pick_payload junk) ])
  in
  {
    name = "serve-hot";
    warmup = Array.to_list v1;
    calibration = v1.(0);
    conns =
      Array.mapi
        (fun i s ->
          {
            label = Printf.sprintf "closed-%d" i;
            pacing = Closed { next = cycling s; think = (fun () -> 0.0) };
          })
        streams;
    eager = Array.to_list v1 @ Array.to_list v2;
    cold_kinds = [];
    prefix = List.concat_map (fun s -> Array.to_list (Array.sub s 0 summary_prefix)) (Array.to_list streams);
    replay = Array.to_list (Array.sub streams.(0) 0 400);
  }

(* serve-cold: every predict carries a payload no other request carries,
   so nothing is served from the result cache.  One request in
   [confidence_every] asks for bands on its own variant.  Each connection
   thinks for an exponential [cold_think_s] before its next request:
   without it the two clients answer the same batch at the same instant
   and the server's batching locks into one of two modes (both requests
   in one batch, or each waiting for the other's fit) for a whole run. *)
let cold_think_s = 0.005

let cold ~seed ~payloads =
  let bases = Array.map series_of payloads in
  let made = Hashtbl.create 1024 in
  (* Item [i] of the single sequence both connections draw from: a pure
     function of the seed and [i], memoised so a template is built once. *)
  let item i =
    match Hashtbl.find_opt made i with
    | Some t -> t
    | None ->
        let rng = Rng.create (Hashtbl.hash (seed, i)) in
        let b = i mod Array.length bases in
        let p =
          variant rng bases.(b)
            ~spec_name:(Printf.sprintf "%s.s%d.v%d" (List.nth base_names b) seed i)
        in
        let kind =
          if i mod confidence_every = confidence_every - 1 then Generator.Confidence
          else if Rng.int rng 8 < 5 then Generator.Predict_v1
          else Generator.Predict_v2
        in
        let t = template kind (Csv p) in
        Hashtbl.replace made i t;
        t
  in
  let next = ref 0 in
  let draw () =
    let t = item !next in
    incr next;
    t
  in
  let warm = Array.map (fun p -> template Generator.Predict_v1 (Csv p)) payloads in
  let think = Rng.create (seed + 1) in
  {
    name = "serve-cold";
    warmup = Array.to_list warm;
    calibration = warm.(0);
    conns =
      Array.init 2 (fun i ->
          let rng = Rng.split think in
          {
            label = Printf.sprintf "closed-%d" i;
            pacing = Closed { next = draw; think = (fun () -> Rng.exponential rng cold_think_s) };
          });
    eager = Array.to_list warm;
    cold_kinds = [ Generator.Predict_v1; Generator.Predict_v2; Generator.Confidence ];
    prefix = List.init summary_prefix item;
    replay = List.init confidence_every item;
  }

(* Spread [templates] over the timed phase: item k is due at (k + 1/2)
   of its share of [seconds]. *)
let spread ~seconds templates =
  let n = Array.length templates in
  Array.mapi (fun k t -> ((float_of_int k +. 0.5) *. seconds /. float_of_int n, t)) templates

(* serve-mixed: connection A requests six suite workloads by name, each a
   cold collection, spread over the run; connection B sends cached
   predicts open loop at [mixed_rate].  The collections run inside the
   server's select loop, so B's requests that arrive during one wait for
   it: the head-of-line tail. *)
let mixed_names = [ "swaptions"; "labyrinth"; "yada"; "vacation-low"; "streamcluster"; "canneal" ]

(* Fast enough that the server rarely sits idle between cheap requests
   (at 50/s their median spread a fifth between runs, from wake-up
   latency), slow enough that the backlog left by a collection drains in
   tens of milliseconds, so the median stays clear of it. *)
let mixed_rate = 200.0

let mixed ~seed ~seconds ~payloads =
  let rng = Rng.create seed in
  let names = Array.of_list mixed_names in
  Rng.shuffle (Rng.split rng) names;
  let v1 = Array.map (fun p -> template Generator.Predict_v1 (Csv p)) payloads in
  let v2 = Array.map (fun p -> template Generator.Predict_v2 (Csv p)) payloads in
  let named = Array.map (fun n -> template Generator.Workload (Name n)) names in
  let stream = cycle (Rng.split rng) ~length:4096 [ (5, pick_payload v1); (3, pick_payload v2) ] in
  {
    name = "serve-mixed";
    warmup = Array.to_list v1;
    calibration = v1.(0);
    conns =
      [|
        { label = "named"; pacing = Scheduled (spread ~seconds named) };
        { label = "open"; pacing = Open { rate = mixed_rate; next = cycling stream } };
      |];
    eager = Array.to_list v1 @ Array.to_list v2;
    cold_kinds = [ Generator.Workload ];
    prefix = Array.to_list named @ Array.to_list (Array.sub stream 0 summary_prefix);
    replay = Array.to_list named @ Array.to_list (Array.sub stream 0 300);
  }

let make name ~seed ~seconds =
  let payloads = base_payloads () in
  match name with
  | "serve-hot" -> hot ~seed ~payloads
  | "serve-cold" -> cold ~seed ~payloads
  | "serve-mixed" -> mixed ~seed ~seconds ~payloads
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (known: %s)" other (String.concat ", " names))

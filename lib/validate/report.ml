module Json = Estima_obs.Json
module Quality = Estima.Diag.Quality
module Stats = Estima_numerics.Stats

type protocol = {
  machine : string;
  sockets : int option;
  target : string;
  window : int;
  target_max : int;
  seed : int;
  repetitions : int;
  include_software : bool;
}

type errors = { max_error : float; mean_error : float; std_error : float }

type t = {
  workload : string;
  family : string;
  protocol : protocol;
  errors : errors;
  per_point : (int * float) list;
  predicted_verdict : Quality.verdict;
  measured_verdict : Quality.verdict;
  verdict_agrees : bool;
  stop_delta : int option;
}

type confusion = {
  scales_scales : int;
  scales_stops : int;
  stops_scales : int;
  stops_stops : int;
}

type summary = {
  workloads : string list;
  avg_max_error : float;
  std_max_error : float;
  worst_error : float;
  worst_workload : string;
  confusion : confusion;
  invariant_ok : bool;
}

let verdict_to_json_string = function
  | Quality.Scales -> "scales"
  | Quality.Stops_at k -> Printf.sprintf "stops@%d" k

let verdict_of_json_string s =
  if s = "scales" then Ok Quality.Scales
  else
    match String.index_opt s '@' with
    | Some i when String.sub s 0 i = "stops" -> (
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt rest with
        | Some k when k > 0 -> Ok (Quality.Stops_at k)
        | _ -> Error (Printf.sprintf "bad stop point in verdict %S" s))
    | _ -> Error (Printf.sprintf "unknown verdict %S (want \"scales\" or \"stops@N\")" s)

let summarize reports =
  if reports = [] then invalid_arg "Report.summarize: empty corpus";
  let maxes = Array.of_list (List.map (fun r -> r.errors.max_error) reports) in
  let worst_i = Stats.argmax maxes in
  let worst = List.nth reports worst_i in
  let count pred = List.length (List.filter pred reports) in
  let is_scales = function Quality.Scales -> true | Quality.Stops_at _ -> false in
  let confusion =
    {
      scales_scales =
        count (fun r -> is_scales r.predicted_verdict && is_scales r.measured_verdict);
      scales_stops =
        count (fun r -> is_scales r.predicted_verdict && not (is_scales r.measured_verdict));
      stops_scales =
        count (fun r -> (not (is_scales r.predicted_verdict)) && is_scales r.measured_verdict);
      stops_stops =
        count (fun r ->
            (not (is_scales r.predicted_verdict)) && not (is_scales r.measured_verdict));
    }
  in
  {
    workloads = List.map (fun r -> r.workload) reports;
    avg_max_error = Stats.mean maxes;
    std_max_error = Stats.std_dev maxes;
    worst_error = maxes.(worst_i);
    worst_workload = worst.workload;
    confusion;
    invariant_ok = confusion.scales_stops = 0;
  }

(* --- JSON --- *)

let schema_version = 1

let json_of_option f = function None -> Json.Null | Some v -> f v

let protocol_to_json (p : protocol) =
  Json.Obj
    [
      ("machine", Json.String p.machine);
      ("sockets", json_of_option (fun s -> Json.Int s) p.sockets);
      ("target", Json.String p.target);
      ("window", Json.Int p.window);
      ("target_max", Json.Int p.target_max);
      ("seed", Json.Int p.seed);
      ("repetitions", Json.Int p.repetitions);
      ("include_software", Json.Bool p.include_software);
    ]

let errors_to_json (e : errors) =
  Json.Obj
    [
      ("max", Json.Float e.max_error);
      ("mean", Json.Float e.mean_error);
      ("std", Json.Float e.std_error);
    ]

let to_json (r : t) =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("workload", Json.String r.workload);
      ("family", Json.String r.family);
      ("protocol", protocol_to_json r.protocol);
      ("errors", errors_to_json r.errors);
      ( "per_point",
        Json.List
          (List.map
             (fun (threads, err) ->
               Json.Obj [ ("threads", Json.Int threads); ("error", Json.Float err) ])
             r.per_point) );
      ("predicted_verdict", Json.String (verdict_to_json_string r.predicted_verdict));
      ("measured_verdict", Json.String (verdict_to_json_string r.measured_verdict));
      ("verdict_agrees", Json.Bool r.verdict_agrees);
      ("stop_delta", json_of_option (fun d -> Json.Int d) r.stop_delta);
    ]

let confusion_to_json (c : confusion) =
  Json.Obj
    [
      ("scales_scales", Json.Int c.scales_scales);
      ("scales_stops", Json.Int c.scales_stops);
      ("stops_scales", Json.Int c.stops_scales);
      ("stops_stops", Json.Int c.stops_stops);
    ]

let summary_to_json (s : summary) =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("workloads", Json.List (List.map (fun w -> Json.String w) s.workloads));
      ( "errors",
        Json.Obj
          [
            ("avg_max", Json.Float s.avg_max_error);
            ("std_max", Json.Float s.std_max_error);
            ("worst", Json.Float s.worst_error);
          ] );
      ("worst_workload", Json.String s.worst_workload);
      ("confusion", confusion_to_json s.confusion);
      ("invariant_ok", Json.Bool s.invariant_ok);
    ]

(* Decoding.  Each accessor threads a member path into its error so a
   mismatching golden file names the offending field. *)

let ( let* ) = Result.bind

let member name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing member %S" name)

let as_string name = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "member %S: expected a string" name)

let as_bool name = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "member %S: expected a bool" name)

let as_int name json =
  match Json.to_int_opt json with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "member %S: expected an int" name)

let as_float name = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "member %S: expected a number" name)

let get f name json =
  let* v = member name json in
  f name v

let get_opt f name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* x = f name v in
      Ok (Some x)

let check_schema json =
  let* v = get as_int "schema" json in
  if v = schema_version then Ok ()
  else Error (Printf.sprintf "schema version %d, this build reads %d" v schema_version)

let protocol_of_json json =
  let* machine = get as_string "machine" json in
  let* sockets = get_opt as_int "sockets" json in
  let* target = get as_string "target" json in
  let* window = get as_int "window" json in
  let* target_max = get as_int "target_max" json in
  let* seed = get as_int "seed" json in
  let* repetitions = get as_int "repetitions" json in
  let* include_software = get as_bool "include_software" json in
  Ok { machine; sockets; target; window; target_max; seed; repetitions; include_software }

let errors_of_json json =
  let* max_error = get as_float "max" json in
  let* mean_error = get as_float "mean" json in
  let* std_error = get as_float "std" json in
  Ok { max_error; mean_error; std_error }

let verdict_member name json =
  let* s = get as_string name json in
  match verdict_of_json_string s with
  | Ok v -> Ok v
  | Error e -> Error (Printf.sprintf "member %S: %s" name e)

let per_point_of_json json =
  match json with
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* threads = get as_int "threads" item in
          let* error = get as_float "error" item in
          Ok ((threads, error) :: acc))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error "member \"per_point\": expected a list"

let of_json json =
  let* () = check_schema json in
  let* workload = get as_string "workload" json in
  let* family = get as_string "family" json in
  let* pj = member "protocol" json in
  let* protocol = protocol_of_json pj in
  let* ej = member "errors" json in
  let* errors = errors_of_json ej in
  let* ppj = member "per_point" json in
  let* per_point = per_point_of_json ppj in
  let* predicted_verdict = verdict_member "predicted_verdict" json in
  let* measured_verdict = verdict_member "measured_verdict" json in
  let* verdict_agrees = get as_bool "verdict_agrees" json in
  let* stop_delta = get_opt as_int "stop_delta" json in
  Ok
    {
      workload;
      family;
      protocol;
      errors;
      per_point;
      predicted_verdict;
      measured_verdict;
      verdict_agrees;
      stop_delta;
    }

let confusion_of_json json =
  let* scales_scales = get as_int "scales_scales" json in
  let* scales_stops = get as_int "scales_stops" json in
  let* stops_scales = get as_int "stops_scales" json in
  let* stops_stops = get as_int "stops_stops" json in
  Ok { scales_scales; scales_stops; stops_scales; stops_stops }

let summary_of_json json =
  let* () = check_schema json in
  let* wj = member "workloads" json in
  let* workloads =
    match wj with
    | Json.List items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* w = as_string "workloads" item in
            Ok (w :: acc))
          (Ok []) items
        |> Result.map List.rev
    | _ -> Error "member \"workloads\": expected a list"
  in
  let* ej = member "errors" json in
  let* avg_max_error = get as_float "avg_max" ej in
  let* std_max_error = get as_float "std_max" ej in
  let* worst_error = get as_float "worst" ej in
  let* worst_workload = get as_string "worst_workload" json in
  let* cj = member "confusion" json in
  let* confusion = confusion_of_json cj in
  let* invariant_ok = get as_bool "invariant_ok" json in
  Ok
    {
      workloads;
      avg_max_error;
      std_max_error;
      worst_error;
      worst_workload;
      confusion;
      invariant_ok;
    }

(* --- text rendering --- *)

let pct f = 100.0 *. f

let table reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %9s %9s %9s  %-10s %-10s %s\n" "workload" "max-err"
       "mean-err" "std-err" "predicted" "measured" "stop-delta");
  List.iter
    (fun r ->
      let delta = match r.stop_delta with None -> "-" | Some d -> Printf.sprintf "%+d" d in
      Buffer.add_string buf
        (Printf.sprintf "%-16s %8.1f%% %8.1f%% %8.1f%%  %-10s %-10s %s\n" r.workload
           (pct r.errors.max_error) (pct r.errors.mean_error) (pct r.errors.std_error)
           (verdict_to_json_string r.predicted_verdict)
           (verdict_to_json_string r.measured_verdict)
           delta))
    reports;
  Buffer.contents buf

let summary_lines s =
  let c = s.confusion in
  String.concat "\n"
    [
      Printf.sprintf "workloads: %d" (List.length s.workloads);
      Printf.sprintf "avg max error: %.1f%%   std: %.1f%%" (pct s.avg_max_error)
        (pct s.std_max_error);
      Printf.sprintf "worst: %s at %.1f%%" s.worst_workload (pct s.worst_error);
      Printf.sprintf "confusion (predicted x measured): scales/scales=%d scales/stops=%d stops/scales=%d stops/stops=%d"
        c.scales_scales c.scales_stops c.stops_scales c.stops_stops;
      Printf.sprintf "scaling-claim invariant (no predicted-scales/measured-stops): %s"
        (if s.invariant_ok then "ok" else "VIOLATED");
    ]
  ^ "\n"

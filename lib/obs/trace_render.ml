(* ------------------------------- text ------------------------------- *)

let verdict_to_string = function
  | Trace.Accepted -> "accepted"
  | Trace.Rejected gate -> "rejected:" ^ Trace.gate_to_string gate

let score_to_string s = if Float.is_finite s then Printf.sprintf "%.4g" s else "-"

let pp_candidate ppf (c : Audit.candidate) =
  Format.fprintf ppf "%-12s prefix=%-2d %-20s score=%-10s %s" c.Audit.kernel c.Audit.prefix
    (verdict_to_string c.Audit.verdict)
    (score_to_string c.Audit.score)
    c.Audit.detail

let pp_record ppf (r : Audit.record) =
  Format.fprintf ppf "@[<v>[%s] %s@," r.Audit.stage r.Audit.subject;
  (match r.Audit.winner with
  | Some w ->
      Format.fprintf ppf "  winner: %s (prefix %d, score %s%s)@," w.Audit.kernel w.Audit.prefix
        (score_to_string w.Audit.score)
        (if Float.is_finite w.Audit.correlation then
           Printf.sprintf ", correlation %.4f" w.Audit.correlation
         else "")
  | None -> Format.fprintf ppf "  winner: (none)@,");
  List.iter (fun n -> Format.fprintf ppf "  note: %s@," n) r.Audit.notes;
  List.iter (fun c -> Format.fprintf ppf "  %a@," pp_candidate c) r.Audit.candidates;
  List.iter
    (fun (d : Audit.decision) ->
      Format.fprintf ppf "  decision: %s vs %s -> %s by %s (%s)@," d.Audit.incumbent
        d.Audit.challenger d.Audit.winner d.Audit.rule d.Audit.detail)
    r.Audit.decisions;
  Format.fprintf ppf "@]"

(* Per-subject detail: the winner line followed by every candidate with
   its verdict (and rejection gate), score and explanation. *)
let pp_audit ppf audit =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@,";
      pp_record ppf r)
    audit;
  Format.fprintf ppf "@]"

let pp_span_stats ppf stats =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (s : Recorder.span_stat) ->
      Format.fprintf ppf "%-40s %6d call%s %12.3f ms@,"
        (String.concat "/" s.Recorder.path)
        s.Recorder.count
        (if s.Recorder.count = 1 then " " else "s")
        (Int64.to_float s.Recorder.total_ns /. 1e6))
    stats;
  Format.fprintf ppf "@]"

let pp_counters ppf counters =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf ppf "%-40s %d@," name v) counters;
  Format.fprintf ppf "@]"

let pp_recorder ppf recorder =
  let audit = Audit.of_events (Recorder.events recorder) in
  Format.fprintf ppf "@[<v>== fit-selection audit ==@,%a@," pp_audit audit;
  (match Recorder.span_stats recorder with
  | [] -> ()
  | stats -> Format.fprintf ppf "@,== span timings ==@,%a@," pp_span_stats stats);
  match Recorder.counters recorder with
  | [] -> Format.fprintf ppf "@]"
  | counters -> Format.fprintf ppf "@,== counters ==@,%a@]" pp_counters counters

(* ------------------------------- JSON ------------------------------- *)

let verdict_members = function
  | Trace.Accepted -> [ ("verdict", Json.String "accepted"); ("gate", Json.Null) ]
  | Trace.Rejected gate ->
      [ ("verdict", Json.String "rejected"); ("gate", Json.String (Trace.gate_to_string gate)) ]

let strings items = Json.List (List.map (fun s -> Json.String s) items)

let json_payload (p : Trace.payload) : Json.t =
  let open Json in
  match p with
  | Trace.Fit_attempt { kernel; points; status } ->
      let status_members =
        match status with
        | Trace.Fitted { rmse; lm_converged } ->
            [
              ("status", String "fitted"); ("rmse", Float rmse); ("lm_converged", Bool lm_converged);
            ]
        | Trace.Not_applicable -> [ ("status", String "not-applicable") ]
        | Trace.No_guesses -> [ ("status", String "no-guesses") ]
        | Trace.Diverged -> [ ("status", String "diverged") ]
      in
      Obj
        ([ ("type", String "fit_attempt"); ("kernel", String kernel); ("points", Int points) ]
        @ status_members)
  | Trace.Candidate { stage; subject; kernel; prefix; verdict; score; detail } ->
      Obj
        ([
           ("type", String "candidate");
           ("stage", String stage);
           ("subject", String subject);
           ("kernel", String kernel);
           ("prefix", Int prefix);
         ]
        @ verdict_members verdict
        @ [ ("score", Float score); ("detail", String detail) ])
  | Trace.Decision { stage; subject; incumbent; challenger; winner; rule; detail } ->
      Obj
        [
          ("type", String "decision");
          ("stage", String stage);
          ("subject", String subject);
          ("incumbent", String incumbent);
          ("challenger", String challenger);
          ("winner", String winner);
          ("rule", String rule);
          ("detail", String detail);
        ]
  | Trace.Winner { stage; subject; kernel; prefix; score; correlation } ->
      Obj
        [
          ("type", String "winner");
          ("stage", String stage);
          ("subject", String subject);
          ("kernel", String kernel);
          ("prefix", Int prefix);
          ("score", Float score);
          ("correlation", Float correlation);
        ]
  | Trace.Note { stage; subject; text } ->
      Obj
        [
          ("type", String "note");
          ("stage", String stage);
          ("subject", String subject);
          ("text", String text);
        ]
  | Trace.Diagnostic { stage; subject; cause; detail } ->
      Obj
        [
          ("type", String "diagnostic");
          ("stage", String stage);
          ("subject", String subject);
          ("cause", String cause);
          ("detail", String detail);
        ]

(* Timestamps are int64 nanoseconds; Int64.to_int is exact on the 64-bit
   targets OCaml 5 supports. *)
let json_event (e : Trace.event) =
  Json.Obj
    [
      ("seq", Json.Int e.Trace.seq);
      ("at_ns", Json.Int (Int64.to_int e.Trace.at_ns));
      ("span", strings e.Trace.span);
      ("payload", json_payload e.Trace.payload);
    ]

let json_candidate (c : Audit.candidate) =
  Json.Obj
    ([ ("kernel", Json.String c.Audit.kernel); ("prefix", Json.Int c.Audit.prefix) ]
    @ verdict_members c.Audit.verdict
    @ [ ("score", Json.Float c.Audit.score); ("detail", Json.String c.Audit.detail) ])

let json_record (r : Audit.record) =
  let open Json in
  Obj
    [
      ("stage", String r.Audit.stage);
      ("subject", String r.Audit.subject);
      ( "winner",
        match r.Audit.winner with
        | None -> Null
        | Some w ->
            Obj
              [
                ("kernel", String w.Audit.kernel);
                ("prefix", Int w.Audit.prefix);
                ("score", Float w.Audit.score);
                ("correlation", Float w.Audit.correlation);
              ] );
      ("candidates", List (List.map json_candidate r.Audit.candidates));
      ( "decisions",
        List
          (List.map
             (fun (d : Audit.decision) ->
               Obj
                 [
                   ("incumbent", String d.Audit.incumbent);
                   ("challenger", String d.Audit.challenger);
                   ("winner", String d.Audit.winner);
                   ("rule", String d.Audit.rule);
                   ("detail", String d.Audit.detail);
                 ])
             r.Audit.decisions) );
      ("notes", strings r.Audit.notes);
    ]

let json_of_recorder recorder =
  let events = Recorder.events recorder in
  let json =
    Json.Obj
      [
        ("events", Json.List (List.map json_event events));
        ("audit", Json.List (List.map json_record (Audit.of_events events)));
        ( "spans",
          Json.List
            (List.map
               (fun (s : Recorder.span_stat) ->
                 Json.Obj
                   [
                     ("path", strings s.Recorder.path);
                     ("count", Json.Int s.Recorder.count);
                     ("total_ns", Json.Int (Int64.to_int s.Recorder.total_ns));
                   ])
               (Recorder.span_stats recorder)) );
        ( "counters",
          Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (Recorder.counters recorder)) );
      ]
  in
  Json.to_string json ^ "\n"

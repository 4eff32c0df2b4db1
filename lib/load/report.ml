module Metrics = Estima_obs.Metrics
module Json = Estima_obs.Json

type t = {
  seed : int;
  clients : int;
  requests : int;
  kind_counts : (Generator.kind * int) list;
  stream_bytes : int;
  sent : int;
  received : int;
  matched : int;
  mismatched : int;
  timed_out : int;
  mismatches : Driver.mismatch list;
  elapsed_s : float;
  throughput_rps : float;
  latency : Metrics.Histogram.snapshot;
  latency_by_kind : (Generator.kind * Metrics.Histogram.snapshot) list;
}

let make (plan : Generator.plan) (outcome : Driver.outcome) =
  {
    seed = plan.Generator.seed;
    clients = Array.length plan.Generator.streams;
    requests = Generator.total_requests plan;
    kind_counts = List.map (fun k -> (k, Generator.count_kind plan k)) Generator.all_kinds;
    stream_bytes = String.length (Generator.stream_bytes plan);
    sent = outcome.Driver.sent;
    received = outcome.Driver.received;
    matched = outcome.Driver.matched;
    mismatched = outcome.Driver.mismatched;
    timed_out = outcome.Driver.timed_out;
    mismatches = outcome.Driver.mismatches;
    elapsed_s = outcome.Driver.elapsed_s;
    throughput_rps =
      (if outcome.Driver.elapsed_s > 0.0 then
         float_of_int outcome.Driver.received /. outcome.Driver.elapsed_s
       else 0.0);
    latency = outcome.Driver.latency;
    latency_by_kind = outcome.Driver.latency_by_kind;
  }

let clean t =
  t.sent = t.received && t.received = t.matched && t.mismatched = 0 && t.timed_out = 0

let deterministic_summary t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "seed=%d\n" t.seed;
  Printf.bprintf buf "clients=%d\n" t.clients;
  Printf.bprintf buf "requests=%d\n" t.requests;
  List.iter
    (fun (kind, count) -> Printf.bprintf buf "%s=%d\n" (Generator.kind_label kind) count)
    t.kind_counts;
  Printf.bprintf buf "stream_bytes=%d\n" t.stream_bytes;
  Printf.bprintf buf "sent=%d\n" t.sent;
  Printf.bprintf buf "received=%d\n" t.received;
  Printf.bprintf buf "matched=%d\n" t.matched;
  Printf.bprintf buf "mismatched=%d\n" t.mismatched;
  Printf.bprintf buf "timed_out=%d\n" t.timed_out;
  Buffer.contents buf

let quantiles t =
  let q p = Metrics.Histogram.snapshot_quantile t.latency p in
  (q 0.5, q 0.9, q 0.99, t.latency.Metrics.Histogram.max)

let kind_quantiles t =
  List.map
    (fun (kind, snapshot) ->
      let q p = Metrics.Histogram.snapshot_quantile snapshot p in
      (Generator.kind_label kind, q 0.5, q 0.99))
    t.latency_by_kind

let to_text t =
  let p50, p90, p99, max = quantiles t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (deterministic_summary t);
  Printf.bprintf buf "elapsed_s=%.3f\n" t.elapsed_s;
  Printf.bprintf buf "throughput_rps=%.1f\n" t.throughput_rps;
  if t.latency.Metrics.Histogram.count > 0 then
    Printf.bprintf buf "latency_s p50=%.6f p90=%.6f p99=%.6f max=%.6f\n" p50 p90 p99 max;
  List.iter
    (fun (kind, p50, p99) -> Printf.bprintf buf "latency_s kind=%s p50=%.6f p99=%.6f\n" kind p50 p99)
    (kind_quantiles t);
  List.iter
    (fun (m : Driver.mismatch) ->
      Printf.bprintf buf "mismatch client=%d id=%d kind=%s\n  expected: %s\n  got:      %s\n"
        m.Driver.client m.Driver.id
        (Generator.kind_label m.Driver.kind)
        m.Driver.expected m.Driver.got)
    t.mismatches;
  Buffer.contents buf

let to_json t =
  let p50, p90, p99, max = quantiles t in
  let latency =
    if t.latency.Metrics.Histogram.count = 0 then Json.Null
    else
      Json.Obj
        [
          ("p50", Json.Float p50);
          ("p90", Json.Float p90);
          ("p99", Json.Float p99);
          ("max", Json.Float max);
        ]
  in
  Json.to_string
    (Json.Obj
       [
         ("seed", Json.Int t.seed);
         ("clients", Json.Int t.clients);
         ("requests", Json.Int t.requests);
         ( "kinds",
           Json.Obj
             (List.map
                (fun (kind, count) -> (Generator.kind_label kind, Json.Int count))
                t.kind_counts) );
         ("stream_bytes", Json.Int t.stream_bytes);
         ("sent", Json.Int t.sent);
         ("received", Json.Int t.received);
         ("matched", Json.Int t.matched);
         ("mismatched", Json.Int t.mismatched);
         ("timed_out", Json.Int t.timed_out);
         ("clean", Json.Bool (clean t));
         ("elapsed_s", Json.Float t.elapsed_s);
         ("throughput_rps", Json.Float t.throughput_rps);
         ("latency", latency);
         ( "latency_by_kind",
           Json.Obj
             (List.map
                (fun (kind, p50, p99) -> (kind, Json.Obj [ ("p50", Json.Float p50); ("p99", Json.Float p99) ]))
                (kind_quantiles t)) );
       ])

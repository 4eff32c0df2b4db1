(* The benchmark's client: one process, one select loop, one socket per
   connection, each connection with its own pacing.

   Estima_load.Driver applies one mix and one pacing to every client and
   times open-loop requests from the actual send; this loop instead
   times an open-loop request from when it was due, so a stall is
   charged to every request it delays, and records how late the loop
   itself sent (send lag).  Every response is matched FIFO against its
   connection's pending requests and kept as a raw sample: percentiles
   are computed exactly from the samples, not read from histogram
   buckets. *)

module Wire = Estima_service.Wire

type sample = {
  tpl : Inputs.template;
  start : float;  (** Latency is timed from here: the send, or the due time when open loop. *)
  lag : float;  (** Seconds between when the request could go out and when it did. *)
  mutable latency : float;  (** Seconds; [nan] until answered. *)
  mutable response : string option;  (** Kept only while [tpl.expected] is unknown. *)
  mutable matched : bool option;
}

let verify s line =
  match s.tpl.Inputs.expected with
  | Some expected -> s.matched <- Some (String.equal expected line)
  | None -> s.response <- Some line

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let chunk = Bytes.create 65536

(* One request on a blocking connection: write the frame, read one
   response line ([inbuf] carries bytes between calls). *)
let roundtrip fd inbuf line =
  let frame = line ^ "\n" in
  let rec write off =
    if off < String.length frame then
      write (off + Unix.write_substring fd frame off (String.length frame - off))
  in
  write 0;
  let rec read () =
    match Wire.split_lines inbuf with
    | [ line ] -> line
    | [] ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "servebench: server closed the connection";
        Buffer.add_subbytes inbuf chunk 0 n;
        read ()
    | _ -> failwith "servebench: more than one response to one request"
  in
  read ()

(* Send [tpls] one at a time on a fresh connection and return the
   verified samples in order. *)
let sequential ~port tpls =
  let fd = connect port in
  let inbuf = Buffer.create 65536 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      List.map
        (fun (tpl : Inputs.template) ->
          let start = Unix.gettimeofday () in
          let line = roundtrip fd inbuf tpl.line in
          let s =
            {
              tpl;
              start;
              lag = 0.0;
              latency = Unix.gettimeofday () -. start;
              response = None;
              matched = None;
            }
          in
          verify s line;
          s)
        tpls)

(* ------------------------------------------------------------------ *)
(* The timed phase                                                     *)
(* ------------------------------------------------------------------ *)

type conn = {
  spec : Inputs.conn;
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_pos : int;
  inbuf : Buffer.t;
  pending : sample Queue.t;
  mutable sent : int;
  mutable ready_at : float;  (** When a closed-loop connection may send next. *)
  mutable eof : bool;
}

let flush c =
  let len = Buffer.length c.out - c.out_pos in
  if len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_pos len with
    | n ->
        c.out_pos <- c.out_pos + n;
        if c.out_pos = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_pos <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Queue [tpl], which could go out at [ready].  An open-loop request is
   timed from [ready], its due time; any other from the send. *)
let send c ~ready ~open_loop tpl =
  let now = Unix.gettimeofday () in
  Buffer.add_string c.out tpl.Inputs.line;
  Buffer.add_char c.out '\n';
  Queue.add
    {
      tpl;
      start = (if open_loop then ready else now);
      lag = now -. ready;
      latency = nan;
      response = None;
      matched = None;
    }
    c.pending;
  c.sent <- c.sent + 1;
  flush c

(* When [c] next has something to send. *)
let next_due c ~t0 =
  let idle = Queue.is_empty c.pending in
  match c.spec.Inputs.pacing with
  | Inputs.Open { rate; _ } -> t0 +. (float_of_int c.sent /. rate)
  | Inputs.Closed _ when idle -> c.ready_at
  | Inputs.Scheduled items when idle && c.sent < Array.length items ->
      Float.max c.ready_at (t0 +. fst items.(c.sent))
  | Inputs.Closed _ | Inputs.Scheduled _ -> infinity

(* Send whatever is due at [now] on one connection. *)
let rec issue c ~t0 ~now =
  let due = next_due c ~t0 in
  if due <= now then begin
    (match c.spec.Inputs.pacing with
    | Inputs.Open { next; _ } -> send c ~ready:due ~open_loop:true (next ())
    | Inputs.Closed { next; _ } -> send c ~ready:due ~open_loop:false (next ())
    | Inputs.Scheduled items -> send c ~ready:due ~open_loop:false (snd items.(c.sent)));
    issue c ~t0 ~now
  end

let receive c ~now ~answered =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.eof <- true
  | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      List.iter
        (fun line ->
          match Queue.take_opt c.pending with
          | None -> c.eof <- true (* an answer nobody asked for *)
          | Some s ->
              s.latency <- now -. s.start;
              verify s line;
              c.ready_at <-
                (now +. match c.spec.Inputs.pacing with Inputs.Closed { think; _ } -> think () | _ -> 0.0);
              answered s)
        (Wire.split_lines c.inbuf)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> c.eof <- true

type outcome = {
  t0 : float;  (** Start of the timed phase. *)
  samples : sample list;  (** Every request sent: the answered ones, then the unanswered. *)
  elapsed : float;  (** From the start to the last response. *)
  timed_out : int;
}

(* Play [specs] against the server on [port]: send for [seconds], then
   wait for every outstanding response, giving up [drain_s] after the
   end (or the last response, if later) without another. *)
let run ~port ~seconds ~drain_s (specs : Inputs.conn array) =
  let t0 = Unix.gettimeofday () in
  let conns =
    Array.map
      (fun spec ->
        let fd = connect port in
        Unix.set_nonblock fd;
        {
          spec;
          fd;
          out = Buffer.create 65536;
          out_pos = 0;
          inbuf = Buffer.create 65536;
          pending = Queue.create ();
          sent = 0;
          ready_at = t0;
          eof = false;
        })
      specs
  in
  let t_end = t0 +. seconds in
  let answered = ref [] in
  let last_answer = ref t0 in
  let finished now =
    Array.exists (fun c -> c.eof) conns
    || now >= t_end
       && (Array.for_all (fun c -> Queue.is_empty c.pending) conns
          || now -. Float.max t_end !last_answer > drain_s)
  in
  let now = ref t0 in
  while not (finished !now) do
    if !now < t_end then Array.iter (fun c -> issue c ~t0 ~now:!now) conns;
    let wake =
      if !now >= t_end then infinity
      else Array.fold_left (fun acc c -> Float.min acc (next_due c ~t0)) t_end conns
    in
    let timeout = Float.max 0.0 (Float.min (wake -. !now) 0.05) in
    let writers = List.filter (fun c -> Buffer.length c.out > c.out_pos) (Array.to_list conns) in
    let readable, writable, _ =
      try
        Unix.select
          (Array.to_list (Array.map (fun c -> c.fd) conns))
          (List.map (fun c -> c.fd) writers)
          [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    now := Unix.gettimeofday ();
    Array.iter
      (fun c ->
        if List.mem c.fd writable then flush c;
        if List.mem c.fd readable then
          receive c ~now:!now ~answered:(fun s ->
              answered := s :: !answered;
              last_answer := !now))
      conns
  done;
  let unanswered =
    List.concat_map (fun c -> List.of_seq (Queue.to_seq c.pending)) (Array.to_list conns)
  in
  Array.iter (fun c -> Unix.close c.fd) conns;
  {
    t0;
    samples = List.rev_append !answered unanswered;
    elapsed = !last_answer -. t0;
    timed_out = List.length unanswered;
  }

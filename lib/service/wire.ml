(* Line framing over a byte stream: accumulate reads in a per-stream
   buffer, peel off every complete line.  [\r\n] is accepted as [\n] so
   hand-typed sessions work from any terminal. *)

module Metrics = Estima_obs.Metrics
module Diag = Estima.Diag

let split_lines buffer =
  let data = Buffer.contents buffer in
  match String.rindex_opt data '\n' with
  | None -> []
  | Some last ->
      Buffer.clear buffer;
      Buffer.add_string buffer (String.sub data (last + 1) (String.length data - last - 1));
      String.sub data 0 last |> String.split_on_char '\n'
      |> List.map (fun line ->
             let n = String.length line in
             if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)

let default_max_buffer_bytes = 1 lsl 20

(* Per-stream framing state.  [discarding] is set after an oversized
   frame was shed: its bytes are dropped (bounded memory) until the next
   newline resynchronises the stream. *)
type stream = { buffer : Buffer.t; mutable discarding : bool }

let new_stream () = { buffer = Buffer.create 4096; discarding = false }

let count server name = Metrics.Counter.incr (Metrics.counter (Server.metrics server) name)

let connection_error server counter cause =
  count server counter;
  count server "estima_errors_total";
  Protocol.error_response ~id:Json.Null ~v:1 (Diag.make ~stage:Diag.Serve ~subject:"connection" cause)

(* Feed [n] freshly read bytes into the stream and return the complete
   lines now available, plus at most one typed [frame-too-large] error
   line when the residual (no newline yet) exceeded [limit]: the buffer
   is dropped and the stream discards until the next newline — an
   adversarial no-newline client costs one chunk of memory, not an
   unbounded buffer.  The error is returned rather than written here so
   the caller can emit it after the responses to the complete lines,
   which arrived first on the wire. *)
let ingest server stream ~limit chunk n =
  let data = Bytes.sub_string chunk 0 n in
  let data =
    if not stream.discarding then data
    else
      match String.index_opt data '\n' with
      | None -> ""
      | Some i ->
          stream.discarding <- false;
          String.sub data (i + 1) (String.length data - i - 1)
  in
  if data = "" then ([], None)
  else begin
    Buffer.add_string stream.buffer data;
    let lines = split_lines stream.buffer in
    let shed =
      if Buffer.length stream.buffer > limit then begin
        let buffered = Buffer.length stream.buffer in
        Buffer.clear stream.buffer;
        stream.discarding <- true;
        Some
          (connection_error server "estima_frame_too_large_total"
             (Diag.Frame_too_large { buffered; limit }))
      end
      else None
    in
    (lines, shed)
  end

(* EOF flush: a final line the peer never terminated is still a request.
   The buffer holds only that unterminated tail, so terminating it and
   splitting once gives exactly the complete lines.  The tail of a frame
   that was already shed as oversized stays dropped. *)
let final_lines stream =
  if stream.discarding || Buffer.length stream.buffer = 0 then []
  else begin
    Buffer.add_char stream.buffer '\n';
    split_lines stream.buffer
  end

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

let write_responses fd responses =
  match responses with
  | [] -> ()
  | responses -> write_all fd (String.concat "\n" responses ^ "\n")

let serve_stdio ?(max_buffer_bytes = default_max_buffer_bytes) server =
  let stream = new_stream () in
  let chunk = Bytes.create 65536 in
  let handle lines =
    if lines = [] then `Continue
    else
      let responses, verdict = Server.handle_batch server lines in
      write_responses Unix.stdout responses;
      verdict
  in
  let rec loop () =
    match Unix.read Unix.stdin chunk 0 (Bytes.length chunk) with
    | 0 -> ignore (handle (final_lines stream))
    | n -> (
        let lines, shed = ingest server stream ~limit:max_buffer_bytes chunk n in
        let verdict = handle lines in
        Option.iter (fun error -> write_responses Unix.stdout [ error ]) shed;
        match verdict with `Shutdown -> () | `Continue -> loop ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* [replies] is the reorder buffer: one slot per request (or shed frame)
   in wire order, written from the head as soon as the head is filled.
   [closed] makes every write a no-op once the fd is gone — the kernel
   may reuse the number for a newly accepted client. *)
type connection = {
  fd : Unix.file_descr;
  stream : stream;
  replies : Server.slot Queue.t;
  mutable eof : bool;
  mutable closed : bool;
}

let default_max_connections = 64

(* The longest wait on a peer that does not read, and on work in flight at shutdown. *)
let drain_seconds = 5.0

(* The listener loop shared by the Unix-socket and TCP transports: only
   the listening socket, [on_accept] (e.g. TCP_NODELAY) and [cleanup]
   (e.g. unlinking the socket file) differ, so every invariant proven
   for one transport holds for the other.  The loop thread (this one)
   does I/O, framing and admission and answers cache hits at once; it
   hands queued compute to the compute thread one job at a time.  That
   thread runs the job, writes one byte to [wake] and waits for the
   next, and the loop runs the job's second half itself — all server
   state stays on the loop thread. *)
let serve_listener ~max_buffer_bytes ~max_connections ~on_accept ~cleanup server listener =
  (* A peer hanging up mid-write must surface as EPIPE, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let connections : (Unix.file_descr, connection) Hashtbl.t = Hashtbl.create 8 in
  let close_connection conn =
    if not conn.closed then begin
      conn.closed <- true;
      Queue.clear conn.replies;
      Hashtbl.remove connections conn.fd;
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end
  in
  (* Connections are non-blocking, so a stalled reader (full receive
     buffer) surfaces as EAGAIN: retry via select-for-writable under a
     deadline, then give the peer up. *)
  let send conn responses =
    if responses <> [] && not conn.closed then begin
      let payload = String.concat "\n" responses ^ "\n" in
      let len = String.length payload in
      let deadline = Unix.gettimeofday () +. drain_seconds in
      let rec go off =
        if off < len && not conn.closed then
          match Unix.write_substring conn.fd payload off (len - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              let remaining = deadline -. Unix.gettimeofday () in
              if remaining <= 0.0 then close_connection conn
              else (try ignore (Unix.select [] [ conn.fd ] [] remaining) with Unix.Unix_error _ -> ());
              go off
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error _ -> close_connection conn
      in
      go 0
    end
  in
  let rec ready conn acc =
    match Queue.peek_opt conn.replies with
    | Some { contents = Some response } ->
        ignore (Queue.pop conn.replies);
        ready conn (response :: acc)
    | _ -> List.rev acc
  in
  (* At EOF a connection closes only once every answer it is owed went out. *)
  let flush conn =
    send conn (ready conn []);
    if conn.eof && Queue.is_empty conn.replies then close_connection conn
  in
  let wake, woken = Unix.pipe ~cloexec:true () in
  let lock = Mutex.create () and handed = Condition.create () in
  let mailbox = ref None and finish = ref ignore and busy = ref false in
  let compute =
    Thread.create
      (fun () ->
        let rec go () =
          Mutex.lock lock;
          while Option.is_none !mailbox do Condition.wait handed lock done;
          let job = Option.get !mailbox in
          mailbox := None;
          Mutex.unlock lock;
          match job with
          | `Stop -> ()
          | `Run job ->
              (finish := try job () with _ -> ignore);
              ignore (Unix.write_substring woken "." 0 1);
              go ()
        in
        go ())
      ()
  in
  let hand job = Mutex.protect lock (fun () -> mailbox := Some job; Condition.signal handed) in
  let kick () =
    if not !busy then Option.iter (fun job -> busy := true; hand (`Run job)) (Server.next_job server)
  in
  let chunk = Bytes.create 65536 in
  let complete () =
    match Unix.read wake chunk 0 1 with
    | 1 -> busy := false; let f = !finish in finish := ignore; f ()
    | _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> ()
  in
  let stop = ref false in
  let submit conn lines =
    if lines <> [] then begin
      let slots, verdict = Server.submit server lines in
      List.iter (fun slot -> Queue.add slot conn.replies) slots;
      if verdict = `Shutdown then stop := true
    end
  in
  let service conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        (* Peer EOF: an unterminated final line is still a request; its
           answer goes out before the close (the peer may have only shut
           down its write side). *)
        submit conn (final_lines conn.stream);
        conn.eof <- true
    | n ->
        let lines, shed = ingest server conn.stream ~limit:max_buffer_bytes chunk n in
        submit conn lines;
        Option.iter (fun error -> Queue.add (ref (Some error)) conn.replies) shed
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_connection conn
  in
  let accept () =
    match Unix.accept listener with
    | exception Unix.Unix_error _ -> ()
    | client, _ ->
    if Hashtbl.length connections >= max_connections then begin
      (* Connection cap: shed the newcomer with a typed error instead of
         tracking state for it; established connections are unaffected. *)
      (try
         write_responses client
           [
             connection_error server "estima_connections_refused_total"
               (Diag.Overloaded { pending = Hashtbl.length connections; capacity = max_connections });
           ]
       with Unix.Unix_error _ -> ());
      try Unix.close client with Unix.Unix_error _ -> ()
    end
    else begin
      (try on_accept client with Unix.Unix_error _ -> ());
      Unix.set_nonblock client;
      Hashtbl.replace connections client
        { fd = client; stream = new_stream (); replies = Queue.create (); eof = false; closed = false }
    end
  in
  (* Graceful drain: a shutdown stops the accepts, but every connection
     keeps being served until no work is in flight and nothing more has
     arrived — or until [drain_seconds] ran out. *)
  let deadline = ref infinity and running = ref true in
  while !running do
    if !stop && !deadline = infinity then deadline := Unix.gettimeofday () +. drain_seconds;
    let fds =
      Hashtbl.fold
        (fun fd conn acc -> if conn.eof then acc else fd :: acc)
        connections
        (if !stop then [ wake ] else [ listener; wake ])
    in
    let timeout =
      if not !stop then -1.0
      else if !busy then Float.max 0.0 (!deadline -. Unix.gettimeofday ())
      else 0.0
    in
    match Unix.select fds [] [] timeout with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listener then accept ()
            else if fd = wake then complete ()
            else Option.iter service (Hashtbl.find_opt connections fd))
          readable;
        kick ();
        List.iter flush (Hashtbl.fold (fun _ conn acc -> conn :: acc) connections []);
        if !stop && (readable = [] || Unix.gettimeofday () > !deadline) then running := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* A job still running past the deadline is left to the exiting
     process; otherwise the compute thread is stopped and joined. *)
  if not !busy then begin
    hand `Stop;
    Thread.join compute;
    Unix.close wake;
    Unix.close woken
  end;
  List.iter close_connection (Hashtbl.fold (fun _ conn acc -> conn :: acc) connections []);
  (try Unix.close listener with Unix.Unix_error _ -> ());
  cleanup ()

let serve_socket ?(max_buffer_bytes = default_max_buffer_bytes)
    ?(max_connections = default_max_connections) server ~path =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 16;
  serve_listener ~max_buffer_bytes ~max_connections
    ~on_accept:(fun _ -> ())
    ~cleanup:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
    server listener

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ | (exception Not_found) ->
          invalid_arg (Printf.sprintf "Wire.serve_tcp: cannot resolve host %S" host))

let serve_tcp ?(max_buffer_bytes = default_max_buffer_bytes)
    ?(max_connections = default_max_connections) ?(on_listen = fun _ _ -> ()) server ~host ~port =
  let addr = resolve_host host in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt listener Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
  (try Unix.bind listener (Unix.ADDR_INET (addr, port))
   with exn ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise exn);
  Unix.listen listener 16;
  (* With port 0 the kernel picked one: report the bound address so the
     operator (or a test harness) can connect. *)
  (match Unix.getsockname listener with
  | Unix.ADDR_INET (bound, bound_port) -> on_listen (Unix.string_of_inet_addr bound) bound_port
  | _ -> ());
  serve_listener ~max_buffer_bytes ~max_connections
    ~on_accept:(fun client ->
      (* Latency work over localhost must not pay delayed-ack/Nagle
         stalls: responses are one line, flush them immediately. *)
      Unix.setsockopt client Unix.TCP_NODELAY true)
    ~cleanup:(fun () -> ())
    server listener

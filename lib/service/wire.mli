(** Transports for the prediction server.

    All speak the newline-delimited JSON of {!Protocol}, and every
    connection gets its answers in request order.

    - {b stdio} hands the complete lines of each read to
      {!Server.handle_batch} and writes the answers before reading on.
    - {b sockets} (Unix and TCP) run two threads of the main domain.  The
      loop thread selects over the listener, the connections and a
      completion pipe; it frames, parses and admits requests with
      {!Server.submit} and answers parse errors, metrics, shutdown and
      cache hits at once.  Compute — fits, file reads, collections —
      goes to one compute thread, one {!Server.next_job} at a time; when
      a job is done the compute thread writes a byte to the pipe and
      waits, and the loop thread completes it.  A per-connection reorder
      buffer writes each answer as soon as every earlier answer on that
      connection went out, so a slow request delays only later answers
      on its own connection.  The misses of one read still fan out
      together on the server's domain pool.

    All are bounded against adversarial peers:

    - the per-stream input buffer is capped at [max_buffer_bytes]
      (default 1 MiB).  A peer that streams that much without a newline
      is shed: one typed {!Estima.Diag.Frame_too_large} error line is
      written (and [estima_frame_too_large_total] bumped) after the
      responses to complete lines from the same read — those requests
      arrived first, so positional clients see wire order preserved —
      the buffered bytes are dropped, and input is discarded until the
      next newline
      resynchronises the stream — memory use stays bounded by one read
      chunk, the connection stays up;
    - a final line the peer never terminated is still handed to the
      server when the stream reaches EOF, so piping a file without a
      trailing newline answers every request in it;
    - the socket listener additionally caps concurrent connections at
      [max_connections] (default 64): a newcomer past the cap is
      answered with one typed {!Estima.Diag.Overloaded} error line and
      closed ([estima_connections_refused_total]), leaving established
      connections untouched.

    A socket response write waits at most 5 s for a peer that does not read,
    then drops that peer.  A peer that closes with answers pending loses
    them; the results stay cached.  All transports return normally after
    a [shutdown] request (its response is written in its turn) or when
    the peer side closes; they do not call {!Server.shutdown} — the
    caller owns the server's lifetime. *)

val serve_stdio : ?max_buffer_bytes:int -> Server.t -> unit
(** Serve one session over stdin/stdout.  Returns on EOF or [shutdown]. *)

val serve_socket :
  ?max_buffer_bytes:int -> ?max_connections:int -> Server.t -> path:string -> unit
(** Listen on a Unix domain socket at [path] (an existing socket file
    there is replaced), serving any number of concurrent connections.
    After a [shutdown] request it stops accepting and drains: every
    connection keeps being served until no work is in flight and nothing
    more has arrived, for at most 5 s, then each connection is closed.
    The socket file is removed on the way out. *)

val serve_tcp :
  ?max_buffer_bytes:int ->
  ?max_connections:int ->
  ?on_listen:(string -> int -> unit) ->
  Server.t ->
  host:string ->
  port:int ->
  unit
(** Listen on TCP [host:port] ([host] a dotted quad or resolvable name;
    [port = 0] lets the kernel pick a free port).  Identical semantics
    to {!serve_socket} — the select loop, per-connection buffer cap,
    connection cap, frame shedding and graceful shutdown drain are the
    same code path — plus [SO_REUSEADDR] on the listener and
    [TCP_NODELAY] on accepted connections (one-line responses must not
    wait out Nagle).  [on_listen] is called once with the actually bound
    address and port before the first accept, which is how an operator
    or test harness learns the port when [port = 0] was asked.
    Raises [Invalid_argument] when [host] does not resolve. *)

(** {1 Framing internals, exposed for tests} *)

val split_lines : Buffer.t -> string list
(** Peel every complete line off the buffer, leaving the unterminated
    tail in place: lines are separated by ['\n'], a trailing ['\r'] on a
    line is stripped ([\r\n] framing), empty lines are preserved.
    Returns [[]] (buffer untouched) when no newline has arrived yet. *)

val default_max_buffer_bytes : int
(** 1 MiB. *)

val default_max_connections : int
(** 64. *)

(** Long-lived model-serving daemon with dynamic micro-batching.

    This is the "millions of users" front-end over the batched no-grad
    inference engine: a TCP (HTTP/1.1 over [Unix]) daemon that admits
    concurrent JSON requests into a shared queue and coalesces them
    into blocks for {!Pnc_core.Model.run_batch_t}. Connection
    handlers are spread round-robin over [pool_size] domains, and at
    most [pool_size] lanes (flush loops) run at once. A request that
    finds a lane free computes at once on its own handler thread,
    taking whatever is queued up to [max_batch] rows; one that finds
    every lane busy queues, and the lanes take the queued work as they
    finish, so blocks coalesce under load. No request waits on a
    timer.

    {b Parity contract.} Serving never changes a number: the logits
    returned over the wire are bit-identical (eps 0) to an offline
    [Model.logits_batch_t] call on the same checkpoint, whatever the
    flush size, micro-batch grouping or domain count. Micro-batching
    only groups rows, and every row's computation is independent of
    its neighbours (the row-independent kernels guarantee this; see
    docs/BATCHING.md); floats travel as [%.17g] decimal,
    which round-trips every finite double exactly. Enforced by
    [test/test_serve.ml] and the load generator's parity check.

    {b Hot reload.} When [reload_every_s > 0], a background thread
    polls the checkpoint file (inode/mtime/size) and atomically swaps
    in a freshly loaded model on change ({!Pnc_core.Persist.load_model}
    — the checkpoint writer's temp+rename discipline means a reader
    never sees a partial file). Every response echoes the
    [model_version] (1 for the initial load, +1 per successful reload)
    that produced it; a failed reload keeps the old model serving.
    Each model version's nominal circuit is realized once, when it
    loads ({!Pnc_core.Model.realize}), and swapped in together with
    the model and its version number, so every block of a version runs
    that version's one instance.

    {b Shutdown.} SIGINT/SIGTERM (or {!stop}) stop admission, drain
    every in-flight request, answer it, then close connections and
    join all threads. SIGPIPE is ignored so a client hanging up
    mid-response never kills the daemon.

    {b Protocol} (see docs/SERVING.md for the full spec):
    - [POST /v1/logits]  body [{"series":[…]}] or [{"batch":[[…],…]}]
      → [{"model_version":v,"logits":…}] (a row per input row)
    - [POST /v1/predict] same bodies → [{"model_version":v,"classes":…}]
    - [GET /healthz]     → [{"status":"ok","model":…,"model_version":v}]
    - [GET /metrics]     → current {!Pnc_obs.Obs} metrics as one JSON
      object.

    Malformed input — bad HTTP framing (including any
    [Transfer-Encoding] and disagreeing [Content-Length] headers), bad
    JSON (including invalid [\u] escapes and nesting deeper than 512),
    wrong shapes, non-finite numbers, oversized bodies — is answered
    with a 4xx JSON error and never crashes the daemon. *)

type config = {
  host : string;  (** bind address (default ["127.0.0.1"]) *)
  port : int;  (** TCP port; [0] picks an ephemeral port (see {!port}) *)
  max_batch : int;
      (** the most coalesced rows a lane takes off the queue in one
          group (a single larger request is still taken whole) *)
  precision : Pnc_core.Batch.precision;
      (** activation tier for batch compute (default [`Exact]); the
          tier is echoed as a ["precision"] field in every /v1 response
          and in /healthz so clients can tell a [`Fast] deployment's
          logits carry the ≤1e-7 approximation *)
  pool_size : int;
      (** the domains the daemon runs on, and its lane count:
          connection handlers are spread round-robin over
          [n = max 1 pool_size] domains and at most [n] lanes flush at
          once, each computing its block whole on its handler's
          thread. [<= 1] runs the whole daemon on the caller's domain.
          OCaml 5.1 runs at most 128 domains, so {!create} refuses a
          [pool_size] above 128. *)
  reload_every_s : float;
      (** checkpoint poll period for hot reload ([<= 0] disables it) *)
  max_body : int;  (** request body size cap, bytes *)
  max_rows : int;  (** rows accepted per single request *)
}

val default_config : config
(** [127.0.0.1:8080], [max_batch = 64], [precision = `Exact],
    [pool_size = min 128 (Domain.recommended_domain_count ())],
    [reload_every_s = 0.5], [max_body = 4 MiB], [max_rows = 1024]. *)

type t

val create : ?config:config -> checkpoint:string -> unit -> (t, string) result
(** Load the model from [checkpoint] ({!Pnc_core.Persist.load_model};
    kind ["model"] or ["train"]), bind and listen. No thread is started
    until {!run}. [Error] carries a printable reason ([pool_size] above
    128, unreadable checkpoint, bind failure). *)

val port : t -> int
(** The bound port — the kernel-assigned one when [config.port = 0]. *)

val model_version : t -> int
(** Version of the currently served model (1 after {!create}). *)

val model_label : t -> string

val live_handlers : t -> int
(** Connection handler threads currently running; back to [0] once
    every accepted connection has closed. *)

val run : ?handle_signals:bool -> t -> unit
(** Serve until {!stop} is called (or, with [handle_signals], until
    SIGINT/SIGTERM). Blocks the calling thread: it becomes the accept
    loop, with one handler thread per connection and (if enabled) one
    reload thread. With [n = pool_size > 1] it also starts [n - 1]
    handler domains, which take every connection [k] with
    [k mod n <> 0] (the rest stay on the caller's domain). Each of
    these domains runs on a fixed 32k-word minor heap, so resident
    memory barely grows with [n]; the caller's domain is left as it
    is. A request that finds fewer than [n] lanes running opens one
    and flushes on its handler thread (flush trigger [free_lane]);
    every further flush of a lane takes queued work ([backlog]). A
    lane leaves once the queue is empty, or once its own request has
    been taken and it has flushed at most one further group; a lane
    that leaves with work queued hands its slot to a waiting handler.
    Returns after the graceful drain completes; every
    thread and every domain it started is joined and every socket
    closed. Raises [Failure] if the process has too few domains left
    to start its own, after ending those it did start and closing the
    listening socket.
    [handle_signals] (default [true]) also ignores SIGPIPE and maps
    SIGINT/SIGTERM to {!stop}; pass [false] when embedding the server
    in a test harness (SIGPIPE is still ignored). *)

val stop : t -> unit
(** Request a graceful shutdown: stop accepting, answer everything
    in flight, then return from {!run}. Safe to call from any thread
    and idempotent. *)

(** {1 Request bodies} *)

type block = {
  mutable data : floatarray;
  mutable rows : int;
  mutable cols : int;
  mutable single : bool;
}
(** A decoded [/v1] request body: [rows x cols] values, row-major, in
    the first [rows * cols] slots of [data]; [single] for a ["series"]
    body (one row). Each connection decodes into one block it owns. *)

val decode_body :
  max_rows:int -> ?into:floatarray -> ?off:int -> ?len:int -> string -> block
(** Decode a [{"series":[…]}] or [{"batch":[[…],…]}] body in one pass,
    writing each number with {!Pnc_obs.Obs.Json.Cursor.number_into}
    straight into [into], or into a larger buffer when it is too small
    (the result's [data]; pass it back as [into] to reuse it). Into a
    large-enough [into] the numbers allocate nothing: a body costs a
    constant number of words whatever its size. The body
    is the slice of [len] bytes at [off] (default: the whole string),
    read in place through {!Pnc_obs.Obs.Json.Cursor.make_sub}: the
    result and every error message, offsets included, are those of
    decoding [String.sub s off len]. Members
    other than the first ["series"] or ["batch"] are validated as JSON
    and skipped. Raises [Failure] with the 400 message on malformed
    JSON (including nesting deeper than
    {!Pnc_obs.Obs.Json.Cursor.max_depth}), on both keys or neither, an
    empty or ragged row, a non-number or non-finite element, or more
    than [max_rows] rows (checked while scanning, before the excess
    row is read). Accepts exactly the bodies that {!Pnc_obs.Obs.Json.parse}
    plus the shape rules accept, with the same values. *)

(** {1 Receive path}

    How a handler reads its connection: one byte buffer per
    connection ({!Http.conn}), heads parsed and bodies decoded where
    they lie in it, into records the connection owns. *)

type conn
(** The server side of one connection: its receive buffer (compacted
    in place and grown to the largest message, never past 16 KiB of
    head plus [max_body]), its admission entry and decode block, its
    reply and batch buffers. *)

val conn : max_body:int -> Unix.file_descr -> conn

val read_request : conn -> Http.request
(** {!Http.read_request} on the connection: its one request record,
    overwritten by the next read. Raises [End_of_file] when the peer
    closes and {!Http.Bad_request} on a framing error. *)

val decode_request : max_rows:int -> conn -> block
(** {!decode_body} of the last request's body, in place in the receive
    buffer, into the connection's block (returned; overwritten by the
    next decode). Valid only before the next {!read_request} on the
    connection, which may move or overwrite those bytes. *)

(** {1 Client}

    A minimal blocking HTTP/1.1 client for the protocol above — the
    load generator, the differential tests and the CI smoke job all
    speak to the daemon through this, so wire-level behaviour is
    exercised by every consumer. *)

module Client : sig
  type conn

  val connect : ?host:string -> port:int -> unit -> conn
  (** Open one keep-alive connection. Raises [Unix.Unix_error] when the
      daemon is unreachable. *)

  val close : conn -> unit

  type response = { status : int; body : string }

  val request : conn -> meth:string -> path:string -> ?body:string -> unit -> response
  (** One request/response exchange on the connection. Raises
      [Failure] on a malformed response and [Unix.Unix_error] /
      [End_of_file] on transport errors. *)

  val logits : conn -> float array -> (int * float array, string) result
  (** [logits c series] posts [{"series":…}] and returns
      [(model_version, logits)]. [Error] carries the HTTP error body
      for non-200 answers. *)

  val logits_batch : conn -> float array array -> (int * float array array, string) result
  (** Multi-row twin of {!logits} ([{"batch":…}]; one logits row per
      input row, all computed under one model version). *)

  val predict : conn -> float array -> (int * int, string) result
  (** [(model_version, argmax class)]. *)

  val health : conn -> (int * string, string) result
  (** [(model_version, model label)] from [GET /healthz]. *)
end

(* Model-serving daemon: HTTP/1.1 over Unix sockets, work-conserving
   admission into micro-batches for Model.run_batch_t, handler
   threads spread over domains, checkpoint hot reload, graceful drain
   on shutdown. See serve.mli and docs/SERVING.md for the contracts.

   Threading model: connection handlers run on [n = max 1 pool_size]
   domains. The caller of [run] is the accept loop and hands accepted
   connections round-robin to the [n] domains, its own included; each
   other domain runs a spawner that starts the handler systhread of
   every connection handed to it inside that domain. So reading,
   decoding, compute and reply rendering for different connections run
   in parallel, one connection per systhread (they spend their life
   blocked in socket I/O or waiting on a reply mailbox, so hundreds are
   fine). One optional reload thread runs on the caller's domain.

   Admission is work-conserving over [n] lanes, a lane being one flush
   loop in progress. A request that arrives while fewer than [n] lanes
   run opens one on its own handler thread and computes at once,
   taking whatever is queued up to [max_batch] rows; a request that
   arrives while all [n] are busy queues, and a lane that finishes its
   group takes the queued work, so under load blocks coalesce. No
   request waits on a timer. A lane leaves once the queue is empty or
   once its own request has been taken and it has flushed at most one
   further group; if work is still queued it hands its slot to a
   waiting handler, so queued work always has a lane. More than [n]
   lanes would only time-slice the same domains. Each block is
   computed whole on the lane's thread; every row is computed
   independently of its neighbours (the batched-kernel parity
   contract), so the grouping never changes a served number. The
   domains [run] spawns start through [Pool.spawn], on its small minor
   heap, so resident memory barely grows with [n]. What a request
   allocates dies young (a 10 s benchmark run promotes 0.25 of 145
   Mwords), so the smaller heap costs few promotions.

   Copies: a connection reads into one byte buffer it owns; the body
   is decoded where it lies, straight into the connection's float
   buffer; the lane copies the group's rows into its own batch tensor,
   which the kernels read in place; and the reply is rendered from the
   logits rows into the connection's reply buffer. *)

module Model = Pnc_core.Model
module Persist = Pnc_core.Persist
module Tensor = Pnc_tensor.Tensor
module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock
module Json = Pnc_obs.Obs.Json

(* Metrics (registered once per process at module init). *)
let requests_c = Obs.Counter.make "serve.requests"
let rows_c = Obs.Counter.make "serve.rows"
let http_errors_c = Obs.Counter.make "serve.http_errors"
let batches_c = Obs.Counter.make "serve.batches"
let reloads_c = Obs.Counter.make "serve.reloads"
let reload_failures_c = Obs.Counter.make "serve.reload_failures"
let connections_c = Obs.Counter.make "serve.connections"
let latency_h = Obs.Histogram.make "serve.latency_seconds"
let queue_wait_h = Obs.Histogram.make "serve.queue_wait_seconds"
let batch_fill_h = Obs.Histogram.make "serve.batch_fill"

type config = {
  host : string;
  port : int;
  max_batch : int;
  precision : Pnc_core.Batch.precision;
  pool_size : int;
  reload_every_s : float;
  max_body : int;
  max_rows : int;
}

(* [run] uses [pool_size] domains: the caller's and [pool_size - 1]
   handler domains. OCaml 5.1 runs at most 128 domains in a process
   (Max_domains). *)
let max_pool_size = 128

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    max_batch = 64;
    precision = `Exact;
    pool_size = min max_pool_size (Domain.recommended_domain_count ());
    reload_every_s = 0.5;
    max_body = 4 * 1024 * 1024;
    max_rows = 1024;
  }

(* Admission queue entries. A request is one or more equal-length rows
   plus its connection's mailbox, which whichever lane flushes the
   request fulfills; the handler thread blocks on the mailbox condition
   until its reply arrives, or until a leaving lane hands it a lane
   ([mb_lane]). A reply is rows [first, first + rows) of the flushed
   block's logits, which no later flush writes to. *)

type reply =
  | R_ok of { version : int; logits : Tensor.t; first : int }
  | R_shutdown

type mailbox = {
  mb_mu : Mutex.t;
  mb_cv : Condition.t;
  mutable mb_reply : reply option;
  mutable mb_lane : bool;
}

(* A decoded request body: [rows x cols] values, row-major, in the
   first [rows * cols] slots of [data]. *)
type block = { data : floatarray; rows : int; cols : int; single : bool }

(* [p_block.data] is the handler's decode buffer: the handler blocks in
   [submit] until [flush] has copied the block out and replied, so the
   buffer is reused only after the flush is done with it. [p_lane]: the
   request's handler runs (or has been handed) a lane; [p_taken]: a
   lane has taken the request off the queue. Both under [q_mu]. *)
type pending = {
  p_block : block;
  p_enq_t : float;
  p_mb : mailbox;
  mutable p_lane : bool;
  mutable p_taken : bool;
}

type ckpt_sig = { cs_ino : int; cs_mtime : float; cs_size : int }

type t = {
  cfg : config;
  ckpt_path : string;
  listen_fd : Unix.file_descr;
  actual_port : int;
  started : float;
  (* current model, its nominal instance (realized once per model
     version) and the version number; the mutex orders reload swaps
     against flush snapshots, so a flush reads the instance and the
     version of one load and a batch never pairs one version's circuit
     with another's number. *)
  model_mu : Mutex.t;
  mutable model : Model.t;
  mutable instance : Model.instance;
  mutable version : int;
  mutable ckpt_sig : ckpt_sig option;
  (* admission queue and the lanes flushing it: [busy] of [lanes] *)
  q_mu : Mutex.t;
  q : pending Queue.t;
  lanes : int;
  mutable busy : int;
  inflight : int Atomic.t; (* rows admitted, response not yet written *)
  stop_flag : bool Atomic.t;
  (* connection registry, for kicking idle keep-alive readers at stop,
     and the live-handler count the drain waits on *)
  conn_mu : Mutex.t;
  handlers_done : Condition.t;
  mutable conns : Unix.file_descr list;
  mutable live_handlers : int;
}

let port t = t.actual_port
let model_label t = Model.label t.model

let live_handlers t =
  Mutex.lock t.conn_mu;
  let n = t.live_handlers in
  Mutex.unlock t.conn_mu;
  n

let model_version t =
  Mutex.lock t.model_mu;
  let v = t.version in
  Mutex.unlock t.model_mu;
  v

let stat_sig path =
  match Unix.stat path with
  | st -> Some { cs_ino = st.Unix.st_ino; cs_mtime = st.Unix.st_mtime; cs_size = st.Unix.st_size }
  | exception Unix.Unix_error _ -> None

let create ?(config = default_config) ~checkpoint () =
  if config.pool_size > max_pool_size then
    Error
      (Printf.sprintf
         "pool_size %d: the daemon runs pool_size domains, and OCaml at most 128 (pool_size <= %d)"
         config.pool_size max_pool_size)
  else
  match Persist.load_model ~path:checkpoint with
  | Error e ->
      Error
        (Printf.sprintf "cannot load model from %s: %s" checkpoint
           (Pnc_ckpt.Ckpt.error_to_string e))
  | Ok model -> (
      match
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt fd Unix.SO_REUSEADDR true;
           Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
           Unix.listen fd 512
         with e ->
           (try Unix.close fd with _ -> ());
           raise e);
        fd
      with
      | exception Unix.Unix_error (err, _, _) ->
          Error
            (Printf.sprintf "cannot bind %s:%d: %s" config.host config.port
               (Unix.error_message err))
      | exception Failure msg -> Error (Printf.sprintf "cannot bind %s: %s" config.host msg)
      | fd ->
          let actual_port =
            match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> config.port
          in
          Ok
            {
              cfg = config;
              ckpt_path = checkpoint;
              listen_fd = fd;
              actual_port;
              started = Clock.now ();
              model_mu = Mutex.create ();
              model;
              instance = Model.realize model;
              version = 1;
              ckpt_sig = stat_sig checkpoint;
              q_mu = Mutex.create ();
              q = Queue.create ();
              lanes = max 1 config.pool_size;
              busy = 0;
              inflight = Atomic.make 0;
              stop_flag = Atomic.make false;
              conn_mu = Mutex.create ();
              handlers_done = Condition.create ();
              conns = [];
              live_handlers = 0;
            })

(* HTTP plumbing ---------------------------------------------------------- *)

exception Bad_request of string

(* Shared by the server side and [Client]: buffered reads off a socket
   into one byte buffer per connection, so pipelined requests and
   keep-alive reuse just work without a copy per read. *)
module Http = struct
  (* The unread bytes are [buf.[pos .. lim - 1]]. The buffer is
     compacted in place and grown to the largest message read so far;
     a server connection never grows it past [max_head + max_body]. *)
  type bufconn = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable pos : int;
    mutable lim : int;
    max_body : int;
  }

  let max_head = 16 * 1024

  let bufconn ~max_body fd = { fd; buf = Bytes.create 4096; pos = 0; lim = 0; max_body }

  (* Room for [need] unread bytes from [pos]: move the unread bytes to
     the front, growing the buffer when even that is not enough. *)
  let reserve c need =
    if c.pos + need > Bytes.length c.buf then begin
      let have = c.lim - c.pos in
      let cap = if c.max_body > max_int - max_head then max_int else max_head + c.max_body in
      let len = Bytes.length c.buf in
      let dst = if need > len then Bytes.create (max need (min cap (2 * len))) else c.buf in
      Bytes.blit c.buf c.pos dst 0 have;
      c.buf <- dst;
      c.pos <- 0;
      c.lim <- have
    end

  (* One read into the free tail, which [reserve] made non-empty. *)
  let read_more c =
    let k = Unix.read c.fd c.buf c.lim (Bytes.length c.buf - c.lim) in
    if k = 0 then raise End_of_file;
    c.lim <- c.lim + k

  (* Index of the first CRLFCRLF in [buf.[from .. lim - 1]]. *)
  let find_blank_line c from =
    let b = c.buf in
    let rec go i =
      if i + 4 > c.lim then None
      else if Bytes.unsafe_get b (i + 3) <> '\n' then go (i + 1)
      else if Bytes.unsafe_get b i = '\r' && Bytes.unsafe_get b (i + 1) = '\n'
              && Bytes.unsafe_get b (i + 2) = '\r'
      then Some i
      else go (i + 1)
    in
    go from

  (* Read up to and including the blank line; returns the head (without
     the terminating CRLFCRLF) and consumes it. *)
  let read_head c =
    let rec go seen =
      match find_blank_line c (c.pos + max 0 (seen - 3)) with
      | Some i ->
          let head = Bytes.sub_string c.buf c.pos (i - c.pos) in
          c.pos <- i + 4;
          head
      | None ->
          let have = c.lim - c.pos in
          if have > max_head then raise (Bad_request "headers too large");
          reserve c (have + 1);
          read_more c;
          go have
    in
    go 0

  (* Consume the next [n] bytes, reading until they are all buffered;
     returns their offset in [buf], valid until the next read on [c]. *)
  let take c n =
    if c.lim - c.pos < n then begin
      reserve c n;
      while c.lim - c.pos < n do
        read_more c
      done
    end;
    let off = c.pos in
    c.pos <- c.pos + n;
    off

  let read_n c n =
    let off = take c n in
    Bytes.sub_string c.buf off n

  let split_lines head = String.split_on_char '\n' head |> List.map (fun l ->
      let l = if String.length l > 0 && l.[String.length l - 1] = '\r' then
          String.sub l 0 (String.length l - 1) else l in
      l)

  let parse_headers lines =
    List.filter_map
      (fun line ->
        match String.index_opt line ':' with
        | None -> None
        | Some i ->
            let k = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
            let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            Some (k, v))
      lines

  let header hs k = List.assoc_opt k hs

  (* Whether the Connection header asks to close: its value is a
     comma-separated list of case-insensitive options (RFC 9110
     §7.6.1), so "Close" and "keep-alive, close" both do. *)
  let wants_close hs =
    match header hs "connection" with
    | None -> false
    | Some v ->
        List.exists
          (fun o -> String.lowercase_ascii (String.trim o) = "close")
          (String.split_on_char ',' v)

  (* A non-negative decimal integer as HTTP writes one: [1*DIGIT], no
     sign, no [_] separators, no [0x]/[0o]/[0b] prefix (all of which
     [int_of_string_opt] accepts). [None] also when the value would
     exceed [max_int]. *)
  let digits s =
    let n = String.length s in
    let rec go i acc =
      if i = n then Some acc
      else
        match s.[i] with
        | '0' .. '9' as ch ->
            let d = Char.code ch - Char.code '0' in
            if acc > (max_int - d) / 10 then None else go (i + 1) ((acc * 10) + d)
        | _ -> None
    in
    if n = 0 then None else go 0 0

  let write_bytes fd b n =
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done

  let write_all fd s =
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd s !off (n - !off)
    done

  let status_text = function
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | 413 -> "Payload Too Large"
    | 503 -> "Service Unavailable"
    | _ -> "Error"

  let response_head ~status ~keep_alive ~length =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: \
       %s\r\n\r\n"
      status (status_text status) length
      (if keep_alive then "keep-alive" else "close")
end

(* Per-connection buffers are kept across requests up to
   [scratch_keep] floats (512 KB, a full [max_rows] batch of 64-step
   rows at the defaults), so an idle connection never holds on to one
   huge body's worth of decoded numbers. *)
let scratch_keep = 1 lsl 16

(* One server connection: its receive buffer, the decode buffer its
   request bodies are read into, the buffers its replies are rendered
   and written from, its reply mailbox and the batch input tensor of
   the blocks it flushes. All of it lives as long as the connection:
   one request at a time is in flight on it. *)
type conn = {
  rx : Http.bufconn;
  mutable scratch : floatarray;
  reply : Buffer.t;
  mutable tx : Bytes.t;
  mb : mailbox;
  batch : Tensor.t ref;
}

let conn ~max_body fd =
  {
    rx = Http.bufconn ~max_body fd;
    scratch = Float.Array.create 0;
    reply = Buffer.create 4096;
    tx = Bytes.create 0;
    mb = { mb_mu = Mutex.create (); mb_cv = Condition.create (); mb_reply = None; mb_lane = false };
    batch = ref (Tensor.zeros ~rows:0 ~cols:0);
  }

(* Write the response: status line and headers, then [c.reply] as the
   body, assembled in [c.tx] for one write loop. *)
let respond c ~status ~keep_alive =
  let head = Http.response_head ~status ~keep_alive ~length:(Buffer.length c.reply) in
  let h = String.length head and n = Buffer.length c.reply in
  if Bytes.length c.tx < h + n then c.tx <- Bytes.create (max (h + n) (2 * Bytes.length c.tx));
  Bytes.blit_string head 0 c.tx 0 h;
  Buffer.blit c.reply 0 c.tx h n;
  Http.write_bytes c.rx.Http.fd c.tx (h + n)

type request = {
  meth : string;
  path : string;
  http11 : bool;
  headers : (string * string) list;
  body_off : int;
  body_len : int;
}

(* Read one request off the connection. [End_of_file] propagates (end
   of keep-alive); framing errors raise [Bad_request]. The body stays in
   the receive buffer, at [body_off]. *)
let read_request c =
  let rx = c.rx in
  let head = Http.read_head rx in
  match Http.split_lines head with
  | [] -> raise (Bad_request "empty request")
  | request_line :: header_lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; path; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let headers = Http.parse_headers header_lines in
          (* Bodies are framed by Content-Length alone. A chunked body
             read as empty would leave its chunks to be parsed as the
             next request, so any Transfer-Encoding, like lengths that
             disagree, is a framing error. *)
          if Http.header headers "transfer-encoding" <> None then
            raise (Bad_request "Transfer-Encoding is not supported");
          let lengths =
            List.filter_map (fun (k, v) -> if k = "content-length" then Some v else None) headers
          in
          let body_len =
            match List.sort_uniq compare lengths with
            | [] -> 0
            | [ v ] -> (
                match Http.digits v with
                | Some n ->
                    if n > rx.Http.max_body then raise (Bad_request "body too large") else n
                | None -> raise (Bad_request "malformed Content-Length"))
            | _ -> raise (Bad_request "conflicting Content-Length headers")
          in
          let body_off = Http.take rx body_len in
          let path = match String.index_opt path '?' with
            | Some i -> String.sub path 0 i
            | None -> path
          in
          { meth; path; http11 = version = "HTTP/1.1"; headers; body_off; body_len }
      | _ -> raise (Bad_request "malformed request line"))

(* JSON bodies ------------------------------------------------------------ *)

let shape_error = "body must have exactly one of \"series\" or \"batch\""

(* Decode {"series":[…]} or {"batch":[[…],…]} in one pass over the
   body, numbers going straight into [into] (grown when too small).
   Unknown members are validated and skipped; of duplicate keys the
   first counts. Raises [Failure] on every malformed body — a served
   body must never crash the daemon, so everything funnels into a
   400. *)
let decode_body ~max_rows ?(into = Float.Array.create 0) ?(off = 0) ?len body =
  let module C = Json.Cursor in
  let c =
    C.make_sub body ~off ~len:(match len with Some l -> l | None -> String.length body - off)
  in
  let data = ref into and len = ref 0 in
  (* One array of numbers; returns its length, failing as soon as it
     passes [limit]. A loop, not a recursive closure, so a row
     allocates nothing: each number is written into [data] in place. *)
  let row ~limit =
    if C.peek c <> '[' then failwith "expected an array of numbers";
    C.advance c;
    if C.peek c = ']' then failwith "empty series";
    let k = ref 0 and more = ref true in
    while !more do
      (match C.peek c with
      | '{' | '[' | '"' | 't' | 'f' | 'n' -> failwith "expected a number"
      | _ ->
          if !len = Float.Array.length !data then begin
            let bigger = Float.Array.create (max 64 (2 * !len)) in
            Float.Array.blit !data 0 bigger 0 !len;
            data := bigger
          end;
          C.number_into c !data !len;
          if not (Float.is_finite (Float.Array.unsafe_get !data !len)) then
            failwith "non-finite number in input";
          incr len);
      incr k;
      if !k > limit then failwith "ragged batch rows";
      match C.peek c with
      | ',' -> C.advance c
      | ']' ->
          C.advance c;
          more := false
      | _ -> C.fail c "expected , or ]"
    done;
    !k
  in
  let rows = ref 0 and cols = ref 0 in
  let batch () =
    if C.peek c <> '[' then failwith "batch must be an array of rows";
    C.advance c;
    if C.peek c = ']' then failwith "empty batch";
    let rec next () =
      if !rows = max_rows then failwith "too many rows in one request";
      let k = row ~limit:(if !rows = 0 then max_int else !cols) in
      if !rows = 0 then cols := k else if k <> !cols then failwith "ragged batch rows";
      incr rows;
      match C.peek c with
      | ',' ->
          C.advance c;
          next ()
      | ']' -> C.advance c
      | _ -> C.fail c "expected , or ]"
    in
    next ()
  in
  if C.peek c <> '{' then begin
    (* Valid JSON but not an object: it has neither key. *)
    ignore (C.value c ~depth:0);
    C.finish c;
    failwith shape_error
  end;
  C.advance c;
  let series = ref false and batched = ref false in
  if C.peek c = '}' then C.advance c
  else begin
    let rec members () =
      let k = C.string c in
      C.expect c ':';
      (match k with
      | "series" when not !series ->
          if !batched then failwith shape_error;
          series := true;
          cols := row ~limit:max_int;
          rows := 1
      | "batch" when not !batched ->
          if !series then failwith shape_error;
          batched := true;
          batch ()
      | _ -> ignore (C.value c ~depth:1));
      match C.peek c with
      | ',' ->
          C.advance c;
          members ()
      | '}' -> C.advance c
      | _ -> C.fail c "expected , or }"
    in
    members ()
  end;
  C.finish c;
  if !rows = 0 then failwith shape_error;
  { data = !data; rows = !rows; cols = !cols; single = !series }

(* The body of [req], decoded where it lies in the receive buffer. The
   bytes are only read, and only until the next read on [c]. *)
let decode_request ~max_rows ?into c req =
  decode_body ~max_rows ?into ~off:req.body_off ~len:req.body_len
    (Bytes.unsafe_to_string c.rx.Http.buf)

let error_body msg = Json.render (Json.Obj [ ("error", Json.String msg) ])

(* A /v1 reply written straight from rows [first, first + rows) of the
   logits: byte for byte the [Json.render] of
   {"model_version":v,"precision":p,"logits":…} (or "classes", the
   argmax per row), a bare row or class for a single-series request.
   Precision names need no JSON escaping. *)
let render_reply b ~version ~precision ~classes ~single (logits : Tensor.t) ~first ~rows =
  let d = logits.Tensor.data and k = Tensor.cols logits in
  let base r = logits.Tensor.off + ((first + r) * k) in
  Buffer.add_string b "{\"model_version\":";
  Json.add_number b (float_of_int version);
  Buffer.add_string b ",\"precision\":\"";
  Buffer.add_string b (Pnc_core.Batch.precision_name precision);
  Buffer.add_string b (if classes then "\",\"classes\":" else "\",\"logits\":");
  if not single then Buffer.add_char b '[';
  for r = 0 to rows - 1 do
    if r > 0 then Buffer.add_char b ',';
    let o = base r in
    if classes then begin
      let best = ref 0 in
      for i = 1 to k - 1 do
        if Bigarray.Array1.unsafe_get d (o + i) > Bigarray.Array1.unsafe_get d (o + !best) then
          best := i
      done;
      Json.add_number b (float_of_int !best)
    end
    else begin
      Buffer.add_char b '[';
      for i = 0 to k - 1 do
        if i > 0 then Buffer.add_char b ',';
        Json.add_number b (Bigarray.Array1.unsafe_get d (o + i))
      done;
      Buffer.add_char b ']'
    end
  done;
  if not single then Buffer.add_char b ']';
  Buffer.add_char b '}'

(* Batching ---------------------------------------------------------------- *)

let fulfill (p : pending) reply =
  Mutex.lock p.p_mb.mb_mu;
  p.p_mb.mb_reply <- Some reply;
  Condition.signal p.p_mb.mb_cv;
  Mutex.unlock p.p_mb.mb_mu

(* Why a lane flushed: its request found a lane free, or it is taking
   queued work (after its own group, or handed the backlog by a
   leaving lane). *)
type trigger = Free_lane | Backlog

let trigger_name = function Free_lane -> "free_lane" | Backlog -> "backlog"

(* Pop a maximal run of equal-width requests from the queue head, up to
   [max_batch] coalesced rows (the first request is always taken whole,
   even if it alone exceeds the threshold). Caller holds [q_mu]. *)
let take_group t =
  match Queue.peek_opt t.q with
  | None -> []
  | Some head ->
      let cols = head.p_block.cols in
      let acc = ref [] in
      let rows = ref 0 in
      let stop = ref false in
      while not !stop do
        match Queue.peek_opt t.q with
        | Some p
          when p.p_block.cols = cols
               && (!rows = 0 || !rows + p.p_block.rows <= t.cfg.max_batch) ->
            ignore (Queue.pop t.q);
            p.p_taken <- true;
            rows := !rows + p.p_block.rows;
            acc := p :: !acc
        | _ -> stop := true
      done;
      List.rev !acc

(* The [rows x cols] batch input, a view of the lane's own tensor
   [buf], which is regrown when too small and kept up to [scratch_keep]
   floats. A connection's handler runs one flush at a time, so its
   tensor is free again once [flush] returns: the kernels only read it,
   and the logits are fresh. *)
let batch_input buf ~rows ~cols =
  let x = !buf in
  if Tensor.cols x = cols && Tensor.rows x >= rows then Tensor.rows_view x ~row:0 ~len:rows
  else begin
    let x = Tensor.zeros ~rows ~cols in
    if rows * cols <= scratch_keep then buf := x;
    x
  end

(* Which of the daemon's domains the current thread runs on: 0 for the
   caller of [run], 1 .. n-1 for the handler domains it spawns. Read
   only for telemetry. *)
let domain_index : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* Compute [group] as one block and fulfill each request's mailbox.
   [extra] counts the groups the lane has taken since its own request
   was taken, this one included (the starvation bound keeps it <= 1). *)
let flush t buf ~trigger ~extra group =
  let t0 = Clock.now () in
  Mutex.lock t.model_mu;
  let instance = t.instance and version = t.version in
  Mutex.unlock t.model_mu;
  let n = List.fold_left (fun n p -> n + p.p_block.rows) 0 group in
  let x = batch_input buf ~rows:n ~cols:(List.hd group).p_block.cols in
  let dst = x.Tensor.data in
  ignore
    (List.fold_left
       (fun off { p_block = b; _ } ->
         let len = b.rows * b.cols in
         for i = 0 to len - 1 do
           Bigarray.Array1.unsafe_set dst (off + i) (Float.Array.unsafe_get b.data i)
         done;
         off + len)
       x.Tensor.off group);
  let opts = { Pnc_core.Batch.default with precision = t.cfg.precision } in
  let logits = Model.run_batch_t ~opts instance x in
  ignore
    (List.fold_left
       (fun first p ->
         Obs.Histogram.observe queue_wait_h (t0 -. p.p_enq_t);
         fulfill p (R_ok { version; logits; first });
         first + p.p_block.rows)
       0 group);
  Obs.Counter.incr batches_c;
  Obs.Counter.add rows_c n;
  Obs.Histogram.observe batch_fill_h (float_of_int n);
  if Obs.enabled () then
    Obs.emit "serve.batch"
      [
        ("rows", Obs.Int n);
        ("requests", Obs.Int (List.length group));
        ("cols", Obs.Int (Tensor.cols x));
        ("model_version", Obs.Int version);
        ("trigger", Obs.Str (trigger_name trigger));
        ("extra", Obs.Int extra);
        ("domain", Obs.Int (Domain.DLS.get domain_index));
        ("compute_s", Obs.Float (Clock.elapsed t0));
      ]

(* Leave a lane, [q_mu] held. If work is still queued, the lane's slot
   goes to the first queued request whose handler runs no lane: it is
   marked and its mailbox signalled before [q_mu] is released, so no
   lane can answer that request before the handler sees the hand-over.
   If every queued request belongs to a running lane, those lanes stay
   until their requests are taken, and the slot is simply freed. *)
let leave_lane t =
  (match Seq.find (fun p -> not p.p_lane) (Queue.to_seq t.q) with
  | Some p ->
      p.p_lane <- true;
      let mb = p.p_mb in
      Mutex.lock mb.mb_mu;
      mb.mb_lane <- true;
      Condition.signal mb.mb_cv;
      Mutex.unlock mb.mb_mu
  | None -> t.busy <- t.busy - 1);
  Mutex.unlock t.q_mu

(* Run a lane for request [p] of connection [c], holding [q_mu] and one
   of the [lanes] slots: flush groups off the queue head until the
   queue is empty, or until [p] has been taken and one further group
   flushed (so a handler whose reply is ready writes it after at most
   one more block), then leave. Returns with [q_mu] released. *)
let run_lane t c p ~trigger =
  let rec go trigger extra =
    if Queue.is_empty t.q || (p.p_taken && extra >= 1) then leave_lane t
    else begin
      let extra = if p.p_taken then extra + 1 else extra in
      let group = take_group t in
      Mutex.unlock t.q_mu;
      flush t c.batch ~trigger ~extra group;
      Mutex.lock t.q_mu;
      go Backlog extra
    end
  in
  go trigger 0

(* Admit [block] and wait for its reply. A request that finds fewer
   than [lanes] lanes running opens one and computes at once; otherwise
   it queues, and its handler waits for a lane to answer it or to hand
   it a lane. The stop check and the push share the queue mutex, and
   queued work always has a lane, so a request is either admitted and
   answered, or rejected — never admitted and dropped. *)
let submit t c block =
  let mb = c.mb in
  mb.mb_reply <- None;
  let p = { p_block = block; p_enq_t = Clock.now (); p_mb = mb; p_lane = false; p_taken = false } in
  Mutex.lock t.q_mu;
  if Atomic.get t.stop_flag then begin
    Mutex.unlock t.q_mu;
    R_shutdown
  end
  else begin
    Queue.push p t.q;
    Atomic.fetch_and_add t.inflight block.rows |> ignore;
    if t.busy < t.lanes then begin
      t.busy <- t.busy + 1;
      p.p_lane <- true;
      run_lane t c p ~trigger:Free_lane
    end
    else Mutex.unlock t.q_mu;
    let rec await () =
      Mutex.lock mb.mb_mu;
      while mb.mb_reply = None && not mb.mb_lane do
        Condition.wait mb.mb_cv mb.mb_mu
      done;
      if mb.mb_lane then begin
        mb.mb_lane <- false;
        Mutex.unlock mb.mb_mu;
        Mutex.lock t.q_mu;
        run_lane t c p ~trigger:Backlog;
        await ()
      end
      else begin
        let r = Option.get mb.mb_reply in
        Mutex.unlock mb.mb_mu;
        r
      end
    in
    await ()
  end

(* Hot reload ------------------------------------------------------------- *)

let try_reload t =
  match stat_sig t.ckpt_path with
  | None -> () (* transiently missing (mid-rename): keep serving *)
  | Some sg when Some sg = t.ckpt_sig -> ()
  | Some sg -> (
      match Persist.load_model ~path:t.ckpt_path with
      | Ok m ->
          let instance = Model.realize m in
          Mutex.lock t.model_mu;
          t.model <- m;
          t.instance <- instance;
          t.version <- t.version + 1;
          t.ckpt_sig <- Some sg;
          let v = t.version in
          Mutex.unlock t.model_mu;
          Obs.Counter.incr reloads_c;
          if Obs.enabled () then
            Obs.emit "serve.reload"
              [ ("ok", Obs.Bool true); ("model_version", Obs.Int v) ];
          Printf.eprintf "[serve] reloaded %s (model version %d)\n%!" t.ckpt_path v
      | Error e ->
          (* Remember the rejected signature so one bad file logs once,
             and keep the old model serving. *)
          t.ckpt_sig <- Some sg;
          Obs.Counter.incr reload_failures_c;
          if Obs.enabled () then
            Obs.emit "serve.reload" [ ("ok", Obs.Bool false) ];
          Printf.eprintf "[serve] reload of %s failed (%s); keeping model version %d\n%!"
            t.ckpt_path
            (Pnc_ckpt.Ckpt.error_to_string e)
            (model_version t))

let reloader t =
  let slice = 0.05 in
  while not (Atomic.get t.stop_flag) do
    (* Sleep [reload_every_s] in small slices so stop is prompt. *)
    let until = Clock.now () +. t.cfg.reload_every_s in
    while (not (Atomic.get t.stop_flag)) && Clock.now () < until do
      Thread.delay slice
    done;
    if not (Atomic.get t.stop_flag) then try_reload t
  done

(* Request routing -------------------------------------------------------- *)

let healthz_body t =
  Mutex.lock t.model_mu;
  let v = t.version and label = Model.label t.model in
  Mutex.unlock t.model_mu;
  Json.render
    (Json.Obj
       [
         ("status", Json.String "ok");
         ("model", Json.String label);
         ("model_version", Json.Num (float_of_int v));
         ("precision", Json.String (Pnc_core.Batch.precision_name t.cfg.precision));
         ("uptime_s", Json.Num (Clock.now () -. t.started));
       ])

let metrics_body t =
  let field_to_json = function
    | Obs.Bool b -> Json.Bool b
    | Obs.Int n -> Json.Num (float_of_int n)
    | Obs.Float v -> if Float.is_finite v then Json.Num v else Json.Null
    | Obs.Str s -> Json.String s
  in
  let metrics =
    List.map
      (fun (name, fields) ->
        (name, Json.Obj (List.map (fun (k, v) -> (k, field_to_json v)) fields)))
      (Obs.metrics_snapshot ())
  in
  Json.render
    (Json.Obj
       (("model_version", Json.Num (float_of_int (model_version t))) :: metrics))

(* Handle one parsed request, rendering the response body into
   [c.reply]; returns (status, admitted) where [admitted] is the number
   of in-flight rows the handler must release after the response bytes
   are written (the graceful-drain barrier in [run] waits for that
   release). *)
let route t c req =
  let b = c.reply in
  Buffer.clear b;
  match (req.meth, req.path) with
  | "GET", "/healthz" ->
      Buffer.add_string b (healthz_body t);
      (200, 0)
  | "GET", "/metrics" ->
      Buffer.add_string b (metrics_body t);
      (200, 0)
  | "POST", ("/v1/logits" | "/v1/predict") -> (
      let block =
        match decode_request ~max_rows:t.cfg.max_rows ~into:c.scratch c req with
        | b -> b
        | exception Failure msg -> raise (Bad_request msg)
      in
      if Float.Array.length block.data <= scratch_keep then c.scratch <- block.data;
      match submit t c block with
      | R_shutdown ->
          Buffer.add_string b (error_body "shutting down");
          (503, 0)
      | R_ok { version; logits; first } ->
          (* The tier is echoed so clients of a `Fast deployment can
             tell their logits carry the ≤1e-7 approximation. *)
          render_reply b ~version ~precision:t.cfg.precision
            ~classes:(req.path = "/v1/predict") ~single:block.single logits ~first
            ~rows:block.rows;
          (200, block.rows))
  | _, ("/healthz" | "/metrics" | "/v1/logits" | "/v1/predict") ->
      Buffer.add_string b (error_body "method not allowed");
      (405, 0)
  | _ ->
      Buffer.add_string b (error_body "not found");
      (404, 0)

let deregister_conn t fd =
  Mutex.lock t.conn_mu;
  t.conns <- List.filter (fun f -> f <> fd) t.conns;
  Mutex.unlock t.conn_mu

(* A handler's last act, however it ends: leave the live count, waking
   [run]'s drain at zero. *)
let handler_exit t =
  Mutex.lock t.conn_mu;
  t.live_handlers <- t.live_handlers - 1;
  if t.live_handlers = 0 then Condition.broadcast t.handlers_done;
  Mutex.unlock t.conn_mu

let handle_conn t fd =
  Fun.protect ~finally:(fun () -> handler_exit t) @@ fun () ->
  let c = conn ~max_body:t.cfg.max_body fd in
  let error msg =
    Obs.Counter.incr http_errors_c;
    Buffer.clear c.reply;
    Buffer.add_string c.reply (error_body msg)
  in
  Obs.Counter.incr connections_c;
  let rec loop () =
    match read_request c with
    | exception End_of_file -> ()
    | exception Bad_request msg ->
        (* Framing is broken: answer and drop the connection (we cannot
           trust the stream position any more). *)
        error msg;
        respond c ~status:400 ~keep_alive:false
    | req ->
        Obs.Counter.incr requests_c;
        let t0 = Clock.now () in
        let status, admitted =
          match route t c req with
          | sa -> sa
          | exception Bad_request msg ->
              error msg;
              (400, 0)
        in
        let keep_alive =
          req.http11
          && not (Http.wants_close req.headers)
          && status <> 503
          && not (Atomic.get t.stop_flag)
        in
        let write_result =
          match respond c ~status ~keep_alive with () -> Ok () | exception e -> Error e
        in
        (* Release admitted-row accounting only after the response
           write attempt: [run]'s graceful-drain barrier waits for
           in-flight rows to reach zero before it starts closing
           sockets, so a computed reply always gets its write. *)
        if admitted > 0 then ignore (Atomic.fetch_and_add t.inflight (-admitted));
        (match write_result with Error e -> raise e | Ok () -> ());
        Obs.Histogram.observe latency_h (Clock.elapsed t0);
        if keep_alive then loop ()
  in
  (try loop () with
  | Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  deregister_conn t fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

let stop t = Atomic.set t.stop_flag true

(* A handler domain's inbox: [run] hands it each accepted socket, then
   [None] once no more will come. *)
type inbox = { i_mu : Mutex.t; i_cv : Condition.t; i_fds : Unix.file_descr option Queue.t }

let hand_over ib fd =
  Mutex.lock ib.i_mu;
  Queue.push fd ib.i_fds;
  Condition.signal ib.i_cv;
  Mutex.unlock ib.i_mu

(* The body of handler domain [i]: start a handler thread for each
   socket handed over, until [None]. A domain whose body has returned
   ends only after every thread it started has, so joining the domain
   joins its handlers. *)
let spawner t i ib () =
  Domain.DLS.set domain_index i;
  let rec next () =
    Mutex.lock ib.i_mu;
    while Queue.is_empty ib.i_fds do
      Condition.wait ib.i_cv ib.i_mu
    done;
    let fd = Queue.pop ib.i_fds in
    Mutex.unlock ib.i_mu;
    match fd with
    | Some fd ->
        ignore (Thread.create (handle_conn t) fd);
        next ()
    | None -> ()
  in
  next ()

let run ?(handle_signals = true) t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if handle_signals then begin
    (* The handler only flips the atomic flag: the accept loop below
       polls it and performs the actual shutdown from a normal thread
       context (no locking inside a signal handler). *)
    let h = Sys.Signal_handle (fun _ -> Atomic.set t.stop_flag true) in
    Sys.set_signal Sys.sigint h;
    Sys.set_signal Sys.sigterm h
  end;
  let n = t.lanes in
  let inboxes =
    Array.init (n - 1) (fun _ ->
        { i_mu = Mutex.create (); i_cv = Condition.create (); i_fds = Queue.create () })
  in
  let domains = ref [] in
  (* Each spawner leaves at [None]; its domain then ends once the
     handler threads it started have. *)
  let join_domains () =
    Array.iter (fun ib -> hand_over ib None) inboxes;
    List.iter Domain.join !domains
  in
  (match
     Array.iteri
       (fun i ib -> domains := Pnc_util.Pool.spawn (spawner t (i + 1) ib) :: !domains)
       inboxes
   with
  | () -> ()
  | exception e ->
      (* Other domains in the process can leave too few for ours. No
         connection has been accepted yet, so the domains started end
         at once; closing the socket refuses clients instead of
         leaving them unanswered. *)
      join_domains ();
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      raise e);
  let reload_thread =
    if t.cfg.reload_every_s > 0. then Some (Thread.create reloader t) else None
  in
  if Obs.enabled () then
    Obs.emit "serve.start"
      [
        ("port", Obs.Int t.actual_port);
        ("max_batch", Obs.Int t.cfg.max_batch);
        ("pool_size", Obs.Int t.cfg.pool_size);
        ("domains", Obs.Int n);
      ];
  (* Accept loop: select with a short timeout so a signal-flipped stop
     flag is noticed promptly. Connection [k] goes to domain [k mod n],
     0 being this one. *)
  let accepted = ref 0 in
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | [ _ ], _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            Mutex.lock t.conn_mu;
            t.conns <- fd :: t.conns;
            t.live_handlers <- t.live_handlers + 1;
            Mutex.unlock t.conn_mu;
            let d = !accepted mod n in
            incr accepted;
            if d = 0 then ignore (Thread.create (handle_conn t) fd)
            else hand_over inboxes.(d - 1) (Some fd)
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful drain: stop admission (submit rejects once the flag is
     up), let the lanes answer everything already admitted, then
     close. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 10. in
  while Atomic.get t.inflight > 0 && Clock.now () < deadline do
    Thread.delay 5e-3
  done;
  Option.iter Thread.join reload_thread;
  (* Kick idle keep-alive readers off their blocking reads, then wait
     until every handler has finished. A socket still waiting in an
     inbox is counted live already; its handler starts, finds the
     socket shut down and leaves. *)
  Mutex.lock t.conn_mu;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.conns;
  while t.live_handlers > 0 do
    Condition.wait t.handlers_done t.conn_mu
  done;
  Mutex.unlock t.conn_mu;
  join_domains ();
  if Obs.enabled () then
    Obs.emit "serve.stop"
      [
        ("requests", Obs.Int (Obs.Counter.value requests_c));
        ("uptime_s", Obs.Float (Clock.now () -. t.started));
      ]

(* Client ----------------------------------------------------------------- *)

module Client = struct
  type conn = Http.bufconn

  let connect ?(host = "127.0.0.1") ~port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    Http.bufconn ~max_body:max_int fd

  let close (c : conn) = try Unix.close c.Http.fd with Unix.Unix_error _ -> ()

  type response = { status : int; body : string }

  let request (c : conn) ~meth ~path ?(body = "") () =
    let has_body = body <> "" || meth = "POST" in
    Http.write_all c.Http.fd
      (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost%s\r\n\r\n%s" meth path
         (if has_body then Printf.sprintf "\r\nContent-Length: %d" (String.length body) else "")
         body);
    let head = Http.read_head c in
    match Http.split_lines head with
    | status_line :: header_lines -> (
        match String.split_on_char ' ' status_line with
        | _http :: code :: _ -> (
            (* status-code is exactly 3DIGIT. *)
            match Http.digits code with
            | Some status when String.length code = 3 ->
                let headers = Http.parse_headers header_lines in
                let body =
                  match Http.header headers "content-length" with
                  | Some v -> (
                      match Http.digits v with
                      | Some n -> Http.read_n c n
                      | None -> failwith ("Client: malformed Content-Length: " ^ v))
                  | None -> ""
                in
                { status; body }
            | _ -> failwith ("Client: malformed status line: " ^ status_line))
        | _ -> failwith ("Client: malformed status line: " ^ status_line))
    | [] -> failwith "Client: empty response"

  let post_json c ~path j =
    let { status; body } = request c ~meth:"POST" ~path ~body:(Json.render j) () in
    if status <> 200 then Error (Printf.sprintf "HTTP %d: %s" status body)
    else
      match Json.parse body with
      | j -> Ok j
      | exception Failure msg -> Error ("malformed response body: " ^ msg)

  let version_of j =
    match Json.member "model_version" j with
    | Some v -> Json.to_int v
    | None -> failwith "response without model_version"

  let floats_of = function
    | Json.List xs -> Array.of_list (List.map Json.to_float xs)
    | _ -> failwith "expected an array of numbers"

  let logits c series =
    let j = Json.Obj [ ("series", Json.List (Array.to_list (Array.map (fun v -> Json.Num v) series))) ] in
    match post_json c ~path:"/v1/logits" j with
    | Error _ as e -> e
    | Ok r -> (
        match Json.member "logits" r with
        | Some l -> Ok (version_of r, floats_of l)
        | None -> Error "response without logits")

  let logits_batch c rows =
    let j =
      Json.Obj
        [
          ( "batch",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun r -> Json.List (Array.to_list (Array.map (fun v -> Json.Num v) r)))
                    rows)) );
        ]
    in
    match post_json c ~path:"/v1/logits" j with
    | Error _ as e -> e
    | Ok r -> (
        match Json.member "logits" r with
        | Some (Json.List ls) ->
            Ok (version_of r, Array.of_list (List.map floats_of ls))
        | _ -> Error "response without batch logits")

  let predict c series =
    let j = Json.Obj [ ("series", Json.List (Array.to_list (Array.map (fun v -> Json.Num v) series))) ] in
    match post_json c ~path:"/v1/predict" j with
    | Error _ as e -> e
    | Ok r -> (
        match Json.member "classes" r with
        | Some cls -> Ok (version_of r, Json.to_int cls)
        | None -> Error "response without classes")

  let health c =
    let { status; body } = request c ~meth:"GET" ~path:"/healthz" () in
    if status <> 200 then Error (Printf.sprintf "HTTP %d: %s" status body)
    else
      match Json.parse body with
      | j -> (
          match (Json.member "model_version" j, Json.member "model" j) with
          | Some v, Some m -> Ok (Json.to_int v, Json.to_string m)
          | _ -> Error "malformed healthz body")
      | exception Failure msg -> Error msg
end

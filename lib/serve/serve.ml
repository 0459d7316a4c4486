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
   heap, so resident memory barely grows with [n].

   A request's state lives in its connection. Every minor collection
   stops all domains and promotes whatever young data is live, so
   per-request records that live through a request grow the major heap
   with uptime. A connection has one request in flight, so it allocates
   its request record (Http), decode block, admission entry and reply
   mailbox once and reuses them; the queue links entries through the
   entries themselves. What a request still allocates (the rendered
   numbers, the forward's logits, about 560 words for 32 rows) is
   garbage within its phase: under the serve benchmark the daemon
   promotes about 0.1 words per request, where fresh records promoted
   2.2.

   Copies: a connection reads into one byte buffer it owns; the head is
   parsed and the body decoded where they lie, the numbers straight
   into the connection's block; the lane copies the group's rows into
   its own batch tensor, which the kernels read in place, and each
   request's logits rows into its connection's reply slots; the reply
   is rendered from those into the connection's reply buffer, and the
   response head written in front of it in the connection's write
   buffer. *)

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

(* A decoded request body: [rows x cols] values, row-major, in the
   first [rows * cols] slots of [data]. Each connection decodes into one
   block it owns. *)
type block = {
  mutable data : floatarray;
  mutable rows : int;
  mutable cols : int;
  mutable single : bool;
}

(* A monotonic reading held flat: a record of one float field is
   stored unboxed, so writing it allocates nothing. *)
type stamp = { mutable at : float }

(* A connection's admission entry and reply mailbox, allocated with the
   connection and reused by each of its requests: a connection has one
   request in flight, and its handler blocks in [submit] until a lane
   has copied the block out and replied. So the entry, its block and
   the reply slots below are reused only once every lane is done with
   them.

   Queue side, under [t.q_mu]: [p_next] links the queued entries
   ([p_self] is [Link p], made once so queueing allocates nothing);
   [p_lane]: the request's handler runs (or has been handed) a lane;
   [p_taken]: a lane has taken the request off the queue.

   Mailbox side, under [p_mu]: the lane that flushes the request copies
   its logits rows into [p_out] (row-major, [p_classes] a row) and sets
   [p_replied] and [p_version]; a leaving lane sets [p_handed] to hand
   the handler a lane. The flushed block's logits tensor is thus dead
   once the flush returns, and no reply is held past its rendering. *)
type pending = {
  p_block : block;
  p_enq : stamp;
  p_mu : Mutex.t;
  p_cv : Condition.t;
  mutable p_lane : bool;
  mutable p_taken : bool;
  mutable p_next : link;
  mutable p_self : link;
  mutable p_replied : bool;
  mutable p_handed : bool;
  mutable p_version : int;
  mutable p_out : floatarray;
  mutable p_classes : int;
}

and link = Nil | Link of pending

let pending () =
  let p =
    {
      p_block = { data = Float.Array.create 0; rows = 0; cols = 0; single = false };
      p_enq = { at = 0. };
      p_mu = Mutex.create ();
      p_cv = Condition.create ();
      p_lane = false;
      p_taken = false;
      p_next = Nil;
      p_self = Nil;
      p_replied = false;
      p_handed = false;
      p_version = 0;
      p_out = Float.Array.create 0;
      p_classes = 0;
    }
  in
  p.p_self <- Link p;
  p

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
  opts : Pnc_core.Batch.opts;
  (* admission queue, linked through [p_next] from [q_head] to
     [q_tail], and the lanes flushing it: [busy] of [lanes] *)
  q_mu : Mutex.t;
  mutable q_head : link;
  mutable q_tail : link;
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
              opts = { Pnc_core.Batch.default with precision = config.precision };
              q_mu = Mutex.create ();
              q_head = Nil;
              q_tail = Nil;
              lanes = max 1 config.pool_size;
              busy = 0;
              inflight = Atomic.make 0;
              stop_flag = Atomic.make false;
              conn_mu = Mutex.create ();
              handlers_done = Condition.create ();
              conns = [];
              live_handlers = 0;
            })

(* Per-connection buffers are kept across requests up to
   [scratch_keep] floats (512 KB, a full [max_rows] batch of 64-step
   rows at the defaults), so an idle connection never holds on to one
   huge body's worth of decoded numbers. *)
let scratch_keep = 1 lsl 16

(* One server connection: its receive buffer (which holds the parsed
   head), its admission entry (with the block its request bodies are
   decoded into), the buffers its replies are rendered and written
   from, and the batch input tensor of the blocks it flushes. All of it
   lives as long as the connection: one request at a time is in flight
   on it. [admitted] is the rows of the request in hand that the
   graceful drain waits on. *)
type conn = {
  rx : Http.conn;
  p : pending;
  reply : Buffer.t;
  mutable tx : Bytes.t;
  batch : Tensor.t ref;
  mutable admitted : int;
}

let conn ~max_body fd =
  {
    rx = Http.conn ~max_body fd;
    p = pending ();
    reply = Buffer.create 4096;
    tx = Bytes.create 0;
    batch = ref (Tensor.zeros ~rows:0 ~cols:0);
    admitted = 0;
  }

(* Write the response: status line and headers, then [c.reply] as the
   body, assembled in [c.tx] for one write loop. *)
let respond c ~status ~keep_alive =
  let n = Buffer.length c.reply in
  let need = Http.max_response_head + n in
  if Bytes.length c.tx < need then c.tx <- Bytes.create (max need (2 * Bytes.length c.tx));
  let h = Http.write_response_head c.tx ~status ~keep_alive ~length:n in
  Buffer.blit c.reply 0 c.tx h n;
  Http.write_bytes c.rx.Http.fd c.tx (h + n)

let read_request c = Http.read_request c.rx

(* JSON bodies ------------------------------------------------------------ *)

let shape_error = "body must have exactly one of \"series\" or \"batch\""

module C = Json.Cursor

(* Decode {"series":[…]} or {"batch":[[…],…]} in one pass over the
   body, numbers going straight into the block's [data] (grown when too
   small). Unknown members are validated and skipped; of duplicate keys
   the first counts. Raises [Failure] on every malformed body — a
   served body must never crash the daemon, so everything funnels into
   a 400. The scanners are top-level functions that keep their state in
   the block, not closures over refs, so a body allocates only its
   cursor and its member names. While row [blk.rows] is read,
   [blk.cols] is the width of the rows before it (0 for the first), so
   its numbers go from slot [blk.rows * blk.cols] on. *)

(* The numbers of one row from its [k]-th on; returns the row's length,
   failing as soon as it passes [limit]. *)
let rec row_items c blk ~limit ~base k =
  (match C.peek c with
  | '{' | '[' | '"' | 't' | 'f' | 'n' -> failwith "expected a number"
  | _ ->
      let i = base + k in
      if i = Float.Array.length blk.data then begin
        let bigger = Float.Array.create (max 64 (2 * i)) in
        Float.Array.blit blk.data 0 bigger 0 i;
        blk.data <- bigger
      end;
      C.number_into c blk.data i;
      if not (Float.is_finite (Float.Array.unsafe_get blk.data i)) then
        failwith "non-finite number in input");
  let k = k + 1 in
  if k > limit then failwith "ragged batch rows";
  match C.peek c with
  | ',' ->
      C.advance c;
      row_items c blk ~limit ~base k
  | ']' ->
      C.advance c;
      k
  | _ -> C.fail c "expected , or ]"

(* One array of numbers. *)
let row c blk ~limit =
  if C.peek c <> '[' then failwith "expected an array of numbers";
  C.advance c;
  if C.peek c = ']' then failwith "empty series";
  row_items c blk ~limit ~base:(blk.rows * blk.cols) 0

let rec batch_rows c blk ~max_rows =
  if blk.rows = max_rows then failwith "too many rows in one request";
  let k = row c blk ~limit:(if blk.rows = 0 then max_int else blk.cols) in
  if blk.rows = 0 then blk.cols <- k else if k <> blk.cols then failwith "ragged batch rows";
  blk.rows <- blk.rows + 1;
  match C.peek c with
  | ',' ->
      C.advance c;
      batch_rows c blk ~max_rows
  | ']' -> C.advance c
  | _ -> C.fail c "expected , or ]"

(* The object's members: "series" read marks the block [single], a
   "batch" read leaves it rows and not [single]. *)
let rec members c blk ~max_rows =
  let k = C.string c in
  C.expect c ':';
  let batched = blk.rows > 0 && not blk.single in
  (match k with
  | "series" when not blk.single ->
      if batched then failwith shape_error;
      blk.single <- true;
      blk.cols <- row c blk ~limit:max_int;
      blk.rows <- 1
  | "batch" when not batched ->
      if blk.single then failwith shape_error;
      if C.peek c <> '[' then failwith "batch must be an array of rows";
      C.advance c;
      if C.peek c = ']' then failwith "empty batch";
      batch_rows c blk ~max_rows
  | _ -> ignore (C.value c ~depth:1));
  match C.peek c with
  | ',' ->
      C.advance c;
      members c blk ~max_rows
  | '}' -> C.advance c
  | _ -> C.fail c "expected , or }"

let decode_into ~max_rows blk body ~off ~len =
  let c = C.make_sub body ~off ~len in
  blk.rows <- 0;
  blk.cols <- 0;
  blk.single <- false;
  if C.peek c <> '{' then begin
    (* Valid JSON but not an object: it has neither key. *)
    ignore (C.value c ~depth:0);
    C.finish c;
    failwith shape_error
  end;
  C.advance c;
  if C.peek c = '}' then C.advance c else members c blk ~max_rows;
  C.finish c;
  if blk.rows = 0 then failwith shape_error

let decode_body ~max_rows ?(into = Float.Array.create 0) ?(off = 0) ?len body =
  let blk = { data = into; rows = 0; cols = 0; single = false } in
  decode_into ~max_rows blk body ~off
    ~len:(match len with Some l -> l | None -> String.length body - off);
  blk

(* The body of the request last read on [c], decoded where it lies in
   the receive buffer into the connection's block. The bytes are only
   read, and only until the next read on [c]. *)
let decode_request ~max_rows c =
  let r = c.rx.Http.req and blk = c.p.p_block in
  decode_into ~max_rows blk (Bytes.unsafe_to_string c.rx.Http.buf) ~off:r.Http.body_off
    ~len:r.Http.body_len;
  blk

let error_body msg = Json.render (Json.Obj [ ("error", Json.String msg) ])

(* A /v1 reply written straight from [rows] logits rows of [k] values
   each, row-major in [out]: byte for byte the [Json.render] of
   {"model_version":v,"precision":p,"logits":…} (or "classes", the
   argmax per row), a bare row or class for a single-series request.
   Precision names need no JSON escaping. *)
let render_reply b ~version ~precision ~classes ~single (out : floatarray) ~k ~rows =
  Buffer.add_string b "{\"model_version\":";
  Json.add_number b (float_of_int version);
  Buffer.add_string b ",\"precision\":\"";
  Buffer.add_string b (Pnc_core.Batch.precision_name precision);
  Buffer.add_string b (if classes then "\",\"classes\":" else "\",\"logits\":");
  if not single then Buffer.add_char b '[';
  for r = 0 to rows - 1 do
    if r > 0 then Buffer.add_char b ',';
    let o = r * k in
    if classes then begin
      let best = ref 0 in
      for i = 1 to k - 1 do
        if Float.Array.unsafe_get out (o + i) > Float.Array.unsafe_get out (o + !best) then
          best := i
      done;
      Json.add_number b (float_of_int !best)
    end
    else begin
      Buffer.add_char b '[';
      for i = 0 to k - 1 do
        if i > 0 then Buffer.add_char b ',';
        Json.add_number b (Float.Array.unsafe_get out (o + i))
      done;
      Buffer.add_char b ']'
    end
  done;
  if not single then Buffer.add_char b ']';
  Buffer.add_char b '}'

(* Batching ---------------------------------------------------------------- *)

(* Queue [p] at the tail; [q_mu] held. *)
let push t p =
  p.p_next <- Nil;
  (match t.q_tail with Link last -> last.p_next <- p.p_self | Nil -> t.q_head <- p.p_self);
  t.q_tail <- p.p_self

(* Reply to [p] with rows [first, first + p's rows) of [logits]. *)
let fulfill p ~version (logits : Tensor.t) ~first =
  let k = Tensor.cols logits and d = logits.Tensor.data in
  let n = p.p_block.rows * k and base = logits.Tensor.off + (first * k) in
  if Float.Array.length p.p_out < n then p.p_out <- Float.Array.create n;
  for i = 0 to n - 1 do
    Float.Array.unsafe_set p.p_out i (Bigarray.Array1.unsafe_get d (base + i))
  done;
  Mutex.lock p.p_mu;
  p.p_version <- version;
  p.p_classes <- k;
  p.p_replied <- true;
  Condition.signal p.p_cv;
  Mutex.unlock p.p_mu

(* Why a lane flushed: its request found a lane free, or it is taking
   queued work (after its own group, or handed the backlog by a
   leaving lane). *)
type trigger = Free_lane | Backlog

let trigger_name = function Free_lane -> "free_lane" | Backlog -> "backlog"

(* Pop a maximal run of equal-width requests from the queue head, up to
   [max_batch] coalesced rows (the first request is always taken whole,
   even if it alone exceeds the threshold), and return how many. The
   run stays linked through [p_next] from the old head. [rows] counts
   the rows taken so far, [k] the requests. Caller holds [q_mu]. *)
let rec take_group t ~cols ~rows k =
  match t.q_head with
  | Link p
    when p.p_block.cols = cols && (rows = 0 || rows + p.p_block.rows <= t.cfg.max_batch) ->
      t.q_head <- p.p_next;
      if p.p_next == Nil then t.q_tail <- Nil;
      p.p_taken <- true;
      take_group t ~cols ~rows:(rows + p.p_block.rows) (k + 1)
  | _ -> k

(* The entry after [p] in a taken run. *)
let next p = match p.p_next with Link q -> q | Nil -> invalid_arg "Serve.next"

(* The [rows x cols] batch input, the lane's own tensor [buf] or a view
   of it; [buf] is regrown when too small and kept up to [scratch_keep]
   floats. A connection's handler runs one flush at a time, so its
   tensor is free again once [flush] returns: the kernels only read it,
   and the logits are fresh. *)
let batch_input buf ~rows ~cols =
  let x = !buf in
  if Tensor.cols x = cols && Tensor.rows x = rows then x
  else if Tensor.cols x = cols && Tensor.rows x > rows then Tensor.rows_view x ~row:0 ~len:rows
  else begin
    let x = Tensor.zeros ~rows ~cols in
    if rows * cols <= scratch_keep then buf := x;
    x
  end

(* Which of the daemon's domains the current thread runs on: 0 for the
   caller of [run], 1 .. n-1 for the handler domains it spawns. Read
   only for telemetry. *)
let domain_index : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* Compute the run of [count] requests from [first] as one block and
   fulfill each request's mailbox. [extra] counts the groups the lane
   has taken since its own request was taken, this one included (the
   starvation bound keeps it <= 1). *)
let flush t buf ~trigger ~extra first count =
  let t0 = Clock.now () in
  Mutex.lock t.model_mu;
  let instance = t.instance and version = t.version in
  Mutex.unlock t.model_mu;
  let n = ref 0 and p = ref first in
  for k = 1 to count do
    n := !n + !p.p_block.rows;
    if k < count then p := next !p
  done;
  let n = !n in
  let x = batch_input buf ~rows:n ~cols:first.p_block.cols in
  let dst = x.Tensor.data and off = ref x.Tensor.off and p = ref first in
  for k = 1 to count do
    let b = !p.p_block in
    let len = b.rows * b.cols in
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set dst (!off + i) (Float.Array.unsafe_get b.data i)
    done;
    off := !off + len;
    if k < count then p := next !p
  done;
  let logits = Model.run_batch_t ~opts:t.opts instance x in
  let row = ref 0 and p = ref first in
  for k = 1 to count do
    (* Read all of an entry before fulfilling it: its handler reuses
       the entry as soon as the reply is in. *)
    let q = !p in
    let rows = q.p_block.rows and link = q.p_next in
    Obs.Histogram.observe queue_wait_h (t0 -. q.p_enq.at);
    fulfill q ~version logits ~first:!row;
    row := !row + rows;
    if k < count then p := (match link with Link q -> q | Nil -> invalid_arg "Serve.flush")
  done;
  Obs.Counter.incr batches_c;
  Obs.Counter.add rows_c n;
  Obs.Histogram.observe batch_fill_h (float_of_int n);
  if Obs.enabled () then
    Obs.emit "serve.batch"
      [
        ("rows", Obs.Int n);
        ("requests", Obs.Int count);
        ("cols", Obs.Int (Tensor.cols x));
        ("model_version", Obs.Int version);
        ("trigger", Obs.Str (trigger_name trigger));
        ("extra", Obs.Int extra);
        ("domain", Obs.Int (Domain.DLS.get domain_index));
        ("compute_s", Obs.Float (Clock.elapsed t0));
      ]

(* The first queued entry from [l] on whose handler runs no lane. *)
let rec first_laneless l = match l with Link p when p.p_lane -> first_laneless p.p_next | _ -> l

(* Leave a lane, [q_mu] held. If work is still queued, the lane's slot
   goes to the first queued request whose handler runs no lane: it is
   marked and its mailbox signalled before [q_mu] is released, so no
   lane can answer that request before the handler sees the hand-over.
   If every queued request belongs to a running lane, those lanes stay
   until their requests are taken, and the slot is simply freed. *)
let leave_lane t =
  (match first_laneless t.q_head with
  | Link p ->
      p.p_lane <- true;
      Mutex.lock p.p_mu;
      p.p_handed <- true;
      Condition.signal p.p_cv;
      Mutex.unlock p.p_mu
  | Nil -> t.busy <- t.busy - 1);
  Mutex.unlock t.q_mu

(* Run a lane for connection [c]'s request, holding [q_mu] and one of
   the [lanes] slots: flush groups off the queue head until the queue
   is empty, or until the request has been taken and one further group
   flushed (so a handler whose reply is ready writes it after at most
   one more block), then leave. Returns with [q_mu] released. *)
let rec run_lane t c ~trigger ~extra =
  match t.q_head with
  | Link head when not (c.p.p_taken && extra >= 1) ->
      let extra = if c.p.p_taken then extra + 1 else extra in
      let count = take_group t ~cols:head.p_block.cols ~rows:0 0 in
      Mutex.unlock t.q_mu;
      flush t c.batch ~trigger ~extra head count;
      Mutex.lock t.q_mu;
      run_lane t c ~trigger:Backlog ~extra
  | _ -> leave_lane t

(* Wait for the reply to [c]'s request, running a lane whenever a
   leaving one hands it over. *)
let rec await t c =
  let p = c.p in
  Mutex.lock p.p_mu;
  while (not p.p_replied) && not p.p_handed do
    Condition.wait p.p_cv p.p_mu
  done;
  if p.p_handed then begin
    p.p_handed <- false;
    Mutex.unlock p.p_mu;
    Mutex.lock t.q_mu;
    run_lane t c ~trigger:Backlog ~extra:0;
    await t c
  end
  else Mutex.unlock p.p_mu

(* Admit the block in [c]'s entry and wait for its reply; [false] when
   the daemon is shutting down. A request that finds fewer than [lanes]
   lanes running opens one and computes at once; otherwise it queues,
   and its handler waits for a lane to answer it or to hand it a lane.
   The stop check and the push share the queue mutex, and queued work
   always has a lane, so a request is either admitted and answered, or
   rejected — never admitted and dropped. *)
let submit t c =
  let p = c.p in
  p.p_replied <- false;
  p.p_lane <- false;
  p.p_taken <- false;
  p.p_enq.at <- Clock.now ();
  Mutex.lock t.q_mu;
  if Atomic.get t.stop_flag then begin
    Mutex.unlock t.q_mu;
    false
  end
  else begin
    push t p;
    Atomic.fetch_and_add t.inflight p.p_block.rows |> ignore;
    if t.busy < t.lanes then begin
      t.busy <- t.busy + 1;
      p.p_lane <- true;
      run_lane t c ~trigger:Free_lane ~extra:0
    end
    else Mutex.unlock t.q_mu;
    await t c;
    true
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

(* A block's buffer grown past [scratch_keep] for one outsized body
   goes back to the one it replaced once that body is done with. *)
let drop_outsized blk kept = if Float.Array.length blk.data > scratch_keep then blk.data <- kept

(* Handle the request just read on [c], rendering the response body
   into [c.reply]; returns the status, and leaves in [c.admitted] the
   number of in-flight rows the handler must release after the response
   bytes are written (the graceful-drain barrier in [run] waits for that
   release). *)
let route t c (req : Http.request) =
  let b = c.reply in
  Buffer.clear b;
  c.admitted <- 0;
  match (req.meth, req.route) with
  | Get, Healthz ->
      Buffer.add_string b (healthz_body t);
      200
  | Get, Metrics ->
      Buffer.add_string b (metrics_body t);
      200
  | Post, (Logits | Predict) ->
      let p = c.p in
      let blk = p.p_block in
      let kept = blk.data in
      (match decode_request ~max_rows:t.cfg.max_rows c with
      | _ -> ()
      | exception Failure msg ->
          drop_outsized blk kept;
          raise (Http.Bad_request msg));
      if not (submit t c) then begin
        drop_outsized blk kept;
        Buffer.add_string b (error_body "shutting down");
        503
      end
      else begin
        (* The tier is echoed so clients of a `Fast deployment can
           tell their logits carry the ≤1e-7 approximation. *)
        render_reply b ~version:p.p_version ~precision:t.cfg.precision
          ~classes:(req.route = Predict) ~single:blk.single p.p_out ~k:p.p_classes ~rows:blk.rows;
        c.admitted <- blk.rows;
        drop_outsized blk kept;
        if Float.Array.length p.p_out > scratch_keep then p.p_out <- Float.Array.create 0;
        200
      end
  | _, (Healthz | Metrics | Logits | Predict) ->
      Buffer.add_string b (error_body "method not allowed");
      405
  | _, Unknown ->
      Buffer.add_string b (error_body "not found");
      404

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
    | exception Http.Bad_request msg ->
        (* Framing is broken: answer and drop the connection (we cannot
           trust the stream position any more). *)
        error msg;
        respond c ~status:400 ~keep_alive:false
    | req ->
        Obs.Counter.incr requests_c;
        let t0 = Clock.now () in
        let status =
          match route t c req with
          | status -> status
          | exception Http.Bad_request msg ->
              error msg;
              400
        in
        let keep_alive =
          req.http11 && (not req.close) && status <> 503 && not (Atomic.get t.stop_flag)
        in
        let write_result =
          match respond c ~status ~keep_alive with () -> Ok () | exception e -> Error e
        in
        (* Release admitted-row accounting only after the response
           write attempt: [run]'s graceful-drain barrier waits for
           in-flight rows to reach zero before it starts closing
           sockets, so a computed reply always gets its write. *)
        if c.admitted > 0 then ignore (Atomic.fetch_and_add t.inflight (-c.admitted));
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
  let accepted = ref 0 and listening = [ t.listen_fd ] in
  while not (Atomic.get t.stop_flag) do
    match Unix.select listening [] [] 0.05 with
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
  type conn = Http.conn

  let connect ?(host = "127.0.0.1") ~port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    Http.conn ~max_body:max_int fd

  let close (c : conn) = try Unix.close c.Http.fd with Unix.Unix_error _ -> ()

  type response = { status : int; body : string }

  let request (c : conn) ~meth ~path ?(body = "") () =
    let has_body = body <> "" || meth = "POST" in
    Http.write_all c.Http.fd
      (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost%s\r\n\r\n%s" meth path
         (if has_body then Printf.sprintf "\r\nContent-Length: %d" (String.length body) else "")
         body);
    let status, body = Http.read_response c in
    { status; body }

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

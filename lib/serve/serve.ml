(* Model-serving daemon: HTTP/1.1 over Unix sockets, an admission
   queue that coalesces concurrent requests into micro-batches for
   Model.logits_batch_t, worker domains from Pnc_util.Pool, checkpoint
   hot reload, graceful drain on shutdown. See serve.mli and
   docs/SERVING.md for the contracts.

   Threading model: the caller of [run] is the accept loop; each
   connection gets one systhread (they spend their life blocked in
   socket I/O or waiting on a reply mailbox, so hundreds are fine);
   one batcher thread owns the admission queue's consumer side; one
   optional reload thread polls the checkpoint. Batch compute happens
   on the batcher thread, or fanned out across Pool worker domains
   when [pool_size > 1] — row-chunking a batch is bit-identical to
   computing it whole (the batched-kernel parity contract), so the
   fan-out never changes a served number. *)

module Model = Pnc_core.Model
module Persist = Pnc_core.Persist
module Tensor = Pnc_tensor.Tensor
module Pool = Pnc_util.Pool
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
  max_delay_s : float;
  batch_size : int option;
  precision : Pnc_core.Batch.precision;
  pool_size : int;
  reload_every_s : float;
  max_body : int;
  max_rows : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    max_batch = 64;
    max_delay_s = 2e-3;
    batch_size = None;
    precision = `Exact;
    pool_size = 0;
    reload_every_s = 0.5;
    max_body = 4 * 1024 * 1024;
    max_rows = 1024;
  }

(* Admission queue entries. A request is one or more equal-length rows
   plus a mailbox the batcher fulfills; the handler thread blocks on
   the mailbox condition until its reply arrives. *)

type reply =
  | R_ok of { version : int; logits : float array array }
  | R_shutdown

type mailbox = {
  mb_mu : Mutex.t;
  mb_cv : Condition.t;
  mutable mb_reply : reply option;
}

type pending = {
  p_rows : float array array;
  p_cols : int;
  p_enq_t : float;
  p_mb : mailbox;
}

type ckpt_sig = { cs_ino : int; cs_mtime : float; cs_size : int }

type t = {
  cfg : config;
  ckpt_path : string;
  listen_fd : Unix.file_descr;
  actual_port : int;
  started : float;
  (* current model; the mutex orders reload swaps against batcher
     snapshots (a snapshot is two field reads, kept atomic w.r.t. the
     swap so a batch never pairs new params with an old version). *)
  model_mu : Mutex.t;
  mutable model : Model.t;
  mutable version : int;
  mutable ckpt_sig : ckpt_sig option;
  (* admission queue *)
  q_mu : Mutex.t;
  q_cv : Condition.t;
  q : pending Queue.t;
  mutable q_rows : int;
  inflight : int Atomic.t; (* rows admitted, response not yet written *)
  pool : Pool.t option;
  stop_flag : bool Atomic.t;
  (* connection registry, for kicking idle keep-alive readers at stop *)
  conn_mu : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable handler_threads : Thread.t list;
}

let port t = t.actual_port
let model_label t = Model.label t.model

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
          let pool =
            if config.pool_size > 1 then Some (Pool.create ~size:config.pool_size ()) else None
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
              version = 1;
              ckpt_sig = stat_sig checkpoint;
              q_mu = Mutex.create ();
              q_cv = Condition.create ();
              q = Queue.create ();
              q_rows = 0;
              inflight = Atomic.make 0;
              pool;
              stop_flag = Atomic.make false;
              conn_mu = Mutex.create ();
              conns = [];
              handler_threads = [];
            })

(* HTTP plumbing ---------------------------------------------------------- *)

(* Shared by the server side and [Client]: buffered reads off a socket
   with a residue string, so pipelined requests and keep-alive reuse
   just work. *)
module Http = struct
  type bufconn = { fd : Unix.file_descr; mutable residue : string }

  let max_head = 16 * 1024

  exception Closed
  exception Bad of string

  let find_sub s sub from =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
    go from

  let read_more c =
    let buf = Bytes.create 8192 in
    let k = Unix.read c.fd buf 0 8192 in
    if k = 0 then raise Closed;
    c.residue <- c.residue ^ Bytes.sub_string buf 0 k

  (* Read up to and including the blank line; returns the head (without
     the terminating CRLFCRLF), leaving the rest in the residue. *)
  let read_head c =
    let rec go scanned =
      match find_sub c.residue "\r\n\r\n" (max 0 (scanned - 3)) with
      | Some i ->
          let head = String.sub c.residue 0 i in
          c.residue <- String.sub c.residue (i + 4) (String.length c.residue - i - 4);
          head
      | None ->
          if String.length c.residue > max_head then raise (Bad "headers too large");
          let len = String.length c.residue in
          read_more c;
          go len
    in
    go 0

  let read_n c n =
    while String.length c.residue < n do
      read_more c
    done;
    let body = String.sub c.residue 0 n in
    c.residue <- String.sub c.residue n (String.length c.residue - n);
    body

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

  let write_all fd s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done

  let status_text = function
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | 413 -> "Payload Too Large"
    | 503 -> "Service Unavailable"
    | _ -> "Error"

  let response ~status ~keep_alive body =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: \
       %s\r\n\r\n%s"
      status (status_text status) (String.length body)
      (if keep_alive then "keep-alive" else "close")
      body
end

type request = {
  meth : string;
  path : string;
  http11 : bool;
  headers : (string * string) list;
  body : string;
}

(* Read one request off the connection. [Http.Closed] propagates (end
   of keep-alive); framing errors raise [Http.Bad]. *)
let read_request cfg (c : Http.bufconn) =
  let head = Http.read_head c in
  match Http.split_lines head with
  | [] -> raise (Http.Bad "empty request")
  | request_line :: header_lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; path; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let headers = Http.parse_headers header_lines in
          let body =
            match Http.header headers "content-length" with
            | None -> ""
            | Some v -> (
                match Http.digits v with
                | Some n ->
                    if n > cfg.max_body then raise (Http.Bad "body too large")
                    else Http.read_n c n
                | None -> raise (Http.Bad "malformed Content-Length"))
          in
          let path = match String.index_opt path '?' with
            | Some i -> String.sub path 0 i
            | None -> path
          in
          { meth; path; http11 = version = "HTTP/1.1"; headers; body }
      | _ -> raise (Http.Bad "malformed request line"))

(* JSON bodies ------------------------------------------------------------ *)

let json_num = function
  | Json.Num v when Float.is_finite v -> v
  | Json.Num _ -> raise (Http.Bad "non-finite number in input")
  | _ -> raise (Http.Bad "expected a number")

let row_of_json = function
  | Json.List [] -> raise (Http.Bad "empty series")
  | Json.List xs -> Array.of_list (List.map json_num xs)
  | _ -> raise (Http.Bad "expected an array of numbers")

(* Decode {"series":[…]} or {"batch":[[…],…]} into rows. Raises
   [Http.Bad] on every malformed shape — a served body must never crash
   the daemon, so everything funnels into a 400. *)
let rows_of_body cfg j =
  match (Json.member "series" j, Json.member "batch" j) with
  | Some s, None -> [| row_of_json s |]
  | None, Some (Json.List []) -> raise (Http.Bad "empty batch")
  | None, Some (Json.List rows) ->
      if List.length rows > cfg.max_rows then raise (Http.Bad "too many rows in one request");
      let rows = Array.of_list (List.map row_of_json rows) in
      let cols = Array.length rows.(0) in
      Array.iter
        (fun r -> if Array.length r <> cols then raise (Http.Bad "ragged batch rows"))
        rows;
      rows
  | None, Some _ -> raise (Http.Bad "batch must be an array of rows")
  | _ -> raise (Http.Bad "body must have exactly one of \"series\" or \"batch\"")

let json_of_row r = Json.List (Array.to_list (Array.map (fun v -> Json.Num v) r))

let error_body msg = Json.render (Json.Obj [ ("error", Json.String msg) ])

(* Admission -------------------------------------------------------------- *)

(* Enqueue rows and block until the batcher replies. The stop check and
   the push share the queue mutex, and the batcher exits only after a
   final is-empty check under the same mutex with the stop flag set, so
   a request is either admitted and answered, or rejected — never
   admitted and dropped. *)
let submit t rows =
  let mb = { mb_mu = Mutex.create (); mb_cv = Condition.create (); mb_reply = None } in
  let p = { p_rows = rows; p_cols = Array.length rows.(0); p_enq_t = Clock.now (); p_mb = mb } in
  Mutex.lock t.q_mu;
  if Atomic.get t.stop_flag then begin
    Mutex.unlock t.q_mu;
    R_shutdown
  end
  else begin
    Queue.push p t.q;
    t.q_rows <- t.q_rows + Array.length rows;
    Atomic.fetch_and_add t.inflight (Array.length rows) |> ignore;
    Condition.signal t.q_cv;
    Mutex.unlock t.q_mu;
    Mutex.lock mb.mb_mu;
    while mb.mb_reply = None do
      Condition.wait mb.mb_cv mb.mb_mu
    done;
    let r = Option.get mb.mb_reply in
    Mutex.unlock mb.mb_mu;
    r
  end

let fulfill (p : pending) reply =
  Mutex.lock p.p_mb.mb_mu;
  p.p_mb.mb_reply <- Some reply;
  Condition.signal p.p_mb.mb_cv;
  Mutex.unlock p.p_mb.mb_mu

(* Batcher ---------------------------------------------------------------- *)

(* Pop a maximal run of equal-width requests from the queue head, up to
   [max_batch] coalesced rows (the first request is always taken whole,
   even if it alone exceeds the threshold — logits_batch_t chunks
   internally). Caller holds [q_mu]. *)
let take_group t =
  match Queue.peek_opt t.q with
  | None -> []
  | Some head ->
      let cols = head.p_cols in
      let acc = ref [] in
      let rows = ref 0 in
      let stop = ref false in
      while not !stop do
        match Queue.peek_opt t.q with
        | Some p
          when p.p_cols = cols
               && (!rows = 0 || !rows + Array.length p.p_rows <= t.cfg.max_batch) ->
            ignore (Queue.pop t.q);
            t.q_rows <- t.q_rows - Array.length p.p_rows;
            rows := !rows + Array.length p.p_rows;
            acc := p :: !acc
        | _ -> stop := true
      done;
      List.rev !acc

(* Chunk bounds for fanning one coalesced batch across pool workers:
   contiguous row ranges, as even as possible. *)
let chunk_bounds ~rows ~workers =
  let w = min workers rows in
  let base = rows / w and extra = rows mod w in
  Array.init w (fun i ->
      let len = base + if i < extra then 1 else 0 in
      let start = (i * base) + min i extra in
      (start, len))

let compute_logits t model x =
  let rows = Tensor.rows x in
  match t.pool with
  | Some pool when rows >= 2 ->
      (* Row-chunking is bit-identical to the whole-batch call: each
         output row depends only on its own input row and the model
         (kernel parity contract, docs/BATCHING.md). *)
      let bounds = chunk_bounds ~rows ~workers:(Pool.size pool) in
      let parts =
        Pool.init pool ~n:(Array.length bounds) (fun i ->
            let start, len = bounds.(i) in
            Model.logits_batch_t ?batch_size:t.cfg.batch_size
              ~precision:t.cfg.precision model
              (Tensor.rows_view x ~row:start ~len))
      in
      Array.concat
        (Array.to_list
           (Array.map
              (fun part -> Array.init (Tensor.rows part) (fun i -> Tensor.row part i))
              parts))
  | _ ->
      let l =
        Model.logits_batch_t ?batch_size:t.cfg.batch_size ~precision:t.cfg.precision
          model x
      in
      Array.init (Tensor.rows l) (fun i -> Tensor.row l i)

let flush t group =
  let t0 = Clock.now () in
  Mutex.lock t.model_mu;
  let model = t.model and version = t.version in
  Mutex.unlock t.model_mu;
  let all_rows = Array.concat (List.map (fun p -> p.p_rows) group) in
  let n = Array.length all_rows in
  let x = Tensor.of_rows all_rows in
  let logit_rows = compute_logits t model x in
  let idx = ref 0 in
  List.iter
    (fun p ->
      let k = Array.length p.p_rows in
      let out = Array.sub logit_rows !idx k in
      idx := !idx + k;
      Obs.Histogram.observe queue_wait_h (t0 -. p.p_enq_t);
      fulfill p (R_ok { version; logits = out }))
    group;
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
        ("compute_s", Obs.Float (Clock.elapsed t0));
      ]

let batcher t =
  let rec main () =
    Mutex.lock t.q_mu;
    while Queue.is_empty t.q && not (Atomic.get t.stop_flag) do
      Condition.wait t.q_cv t.q_mu
    done;
    if Queue.is_empty t.q then Mutex.unlock t.q_mu (* stopping, drained *)
    else begin
      let head = Queue.peek t.q in
      let deadline = head.p_enq_t +. t.cfg.max_delay_s in
      (* Fill window: flush at the row threshold or the deadline,
         whichever first. Polled in sub-ms slices — Condition has no
         timed wait; the slice bounds added latency at ~0.3 ms. *)
      let rec wait_fill () =
        if t.q_rows < t.cfg.max_batch && not (Atomic.get t.stop_flag) then begin
          let now = Clock.now () in
          if now < deadline then begin
            Mutex.unlock t.q_mu;
            Thread.delay (Float.min (deadline -. now) 3e-4);
            Mutex.lock t.q_mu;
            wait_fill ()
          end
        end
      in
      wait_fill ();
      let group = take_group t in
      Mutex.unlock t.q_mu;
      (match group with [] -> () | g -> flush t g);
      main ()
    end
  in
  main ()

(* Hot reload ------------------------------------------------------------- *)

let try_reload t =
  match stat_sig t.ckpt_path with
  | None -> () (* transiently missing (mid-rename): keep serving *)
  | Some sg when Some sg = t.ckpt_sig -> ()
  | Some sg -> (
      match Persist.load_model ~path:t.ckpt_path with
      | Ok m ->
          Mutex.lock t.model_mu;
          t.model <- m;
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

(* Handle one parsed request; returns (status, body, admitted) where
   [admitted] is the number of in-flight rows the handler must release
   after the response bytes are written (the graceful-drain barrier in
   [run] waits for that release). *)
let route t req =
  match (req.meth, req.path) with
  | "GET", "/healthz" -> (200, healthz_body t, 0)
  | "GET", "/metrics" -> (200, metrics_body t, 0)
  | "POST", ("/v1/logits" | "/v1/predict") -> (
      let body_json =
        match Json.parse req.body with
        | j -> j
        | exception Failure msg -> raise (Http.Bad msg)
      in
      let single = Json.member "series" body_json <> None in
      let rows = rows_of_body t.cfg body_json in
      match submit t rows with
      | R_shutdown -> (503, error_body "shutting down", 0)
      | R_ok { version; logits } ->
          let version_field = ("model_version", Json.Num (float_of_int version)) in
          (* Echo the tier so clients of a `Fast deployment can tell
             their logits carry the ≤1e-7 approximation. *)
          let precision_field =
            ("precision", Json.String (Pnc_core.Batch.precision_name t.cfg.precision))
          in
          let body =
            if req.path = "/v1/logits" then
              let payload =
                if single then json_of_row logits.(0)
                else Json.List (Array.to_list (Array.map json_of_row logits))
              in
              Json.render (Json.Obj [ version_field; precision_field; ("logits", payload) ])
            else
              let classes =
                Array.map
                  (fun row ->
                    let best = ref 0 in
                    Array.iteri (fun i v -> if v > row.(!best) then best := i) row;
                    Json.Num (float_of_int !best))
                  logits
              in
              let payload =
                if single then classes.(0) else Json.List (Array.to_list classes)
              in
              Json.render (Json.Obj [ version_field; precision_field; ("classes", payload) ])
          in
          (200, body, Array.length rows))
  | _, ("/healthz" | "/metrics" | "/v1/logits" | "/v1/predict") ->
      (405, error_body "method not allowed", 0)
  | _ -> (404, error_body "not found", 0)

let deregister_conn t fd =
  Mutex.lock t.conn_mu;
  t.conns <- List.filter (fun f -> f <> fd) t.conns;
  Mutex.unlock t.conn_mu

let handle_conn t fd =
  let c = { Http.fd; residue = "" } in
  Obs.Counter.incr connections_c;
  let rec loop () =
    match read_request t.cfg c with
    | exception Http.Closed -> ()
    | exception Http.Bad msg ->
        (* Framing is broken: answer and drop the connection (we cannot
           trust the stream position any more). *)
        Obs.Counter.incr http_errors_c;
        Http.write_all fd (Http.response ~status:400 ~keep_alive:false (error_body msg))
    | req ->
        Obs.Counter.incr requests_c;
        let t0 = Clock.now () in
        let status, body, admitted =
          match route t req with
          | sb -> sb
          | exception Http.Bad msg ->
              Obs.Counter.incr http_errors_c;
              (400, error_body msg, 0)
        in
        let keep_alive =
          req.http11
          && Http.header req.headers "connection" <> Some "close"
          && status <> 503
          && not (Atomic.get t.stop_flag)
        in
        let write_result =
          match Http.write_all fd (Http.response ~status ~keep_alive body) with
          | () -> Ok ()
          | exception e -> Error e
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
  (try Unix.close fd with Unix.Unix_error _ -> ())

let stop t =
  Atomic.set t.stop_flag true;
  Mutex.lock t.q_mu;
  Condition.broadcast t.q_cv;
  Mutex.unlock t.q_mu

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
  let batcher_thread = Thread.create batcher t in
  let reload_thread =
    if t.cfg.reload_every_s > 0. then Some (Thread.create reloader t) else None
  in
  if Obs.enabled () then
    Obs.emit "serve.start"
      [
        ("port", Obs.Int t.actual_port);
        ("max_batch", Obs.Int t.cfg.max_batch);
        ("max_delay_s", Obs.Float t.cfg.max_delay_s);
        ("pool_size", Obs.Int t.cfg.pool_size);
      ];
  (* Accept loop: select with a short timeout so a signal-flipped stop
     flag is noticed promptly. *)
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | [ _ ], _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            Mutex.lock t.conn_mu;
            t.conns <- fd :: t.conns;
            t.handler_threads <- Thread.create (handle_conn t) fd :: t.handler_threads;
            Mutex.unlock t.conn_mu
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful drain: stop admission (submit rejects once the flag is
     up), answer everything already admitted, then close. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 10. in
  while Atomic.get t.inflight > 0 && Clock.now () < deadline do
    Thread.delay 5e-3
  done;
  Mutex.lock t.q_mu;
  Condition.broadcast t.q_cv;
  Mutex.unlock t.q_mu;
  Thread.join batcher_thread;
  Option.iter Thread.join reload_thread;
  (* Kick idle keep-alive readers off their blocking reads, then join
     every handler. *)
  Mutex.lock t.conn_mu;
  let fds = t.conns and threads = t.handler_threads in
  Mutex.unlock t.conn_mu;
  List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) fds;
  List.iter Thread.join threads;
  Option.iter Pool.shutdown t.pool;
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
    { Http.fd; residue = "" }

  let close (c : conn) = try Unix.close c.Http.fd with Unix.Unix_error _ -> ()

  type response = { status : int; body : string }

  let request (c : conn) ~meth ~path ?(body = "") () =
    let has_body = body <> "" || meth = "POST" in
    Http.write_all c.Http.fd
      (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost%s\r\n\r\n%s" meth path
         (if has_body then Printf.sprintf "\r\nContent-Length: %d" (String.length body) else "")
         body);
    let head = try Http.read_head c with Http.Closed -> raise End_of_file in
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

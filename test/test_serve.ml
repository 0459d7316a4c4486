(* Differential tests for the model-serving daemon.

   The load-bearing property is the parity contract from
   lib/serve/serve.mli: logits served over the wire are bit-identical
   (eps 0) to an offline [Model.logits_batch_t] call on the same
   checkpoint, whatever flush mode produced the micro-batch. The
   parity tests pin per-request batches (max_batch = 1), blocks
   coalesced under concurrent load, and a lone request on an idle
   daemon; the lane tests pin admission (coalescing behind a busy
   lane, the one-group starvation bound, a stop with a backlog); plus
   hot reload, malformed-body survival, kill-and-restart and a drain
   check.

   The POOL_SIZE environment variable (default 4) sets the daemon's
   domain count in every suite that does not test a count of its own,
   so `make check JOBS=1` and `JOBS=4` serve them from one domain and
   from four. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Model = Pnc_core.Model
module Network = Pnc_core.Network
module Persist = Pnc_core.Persist
module Serve = Pnc_serve.Serve
module Http = Pnc_serve.Http
module Json = Pnc_obs.Obs.Json

let env_pool_size =
  match Sys.getenv_opt "POOL_SIZE" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 4)
  | None -> 4

let cols = 8
let classes = 3

let make_model seed =
  Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed) Network.Adapt ~inputs:1 ~classes)

let save_model path m = Persist.save_model ~path m

let fresh_ckpt () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "serve_test_%d_%d.ckpt" (Unix.getpid ()) (Random.bits ()))

(* Offline truth: one logits row per input row, straight from the
   batched engine with its defaults (exactly what the daemon calls). *)
let offline model (rows : float array array) : float array array =
  let x = T.of_rows rows in
  let y = Model.logits_batch_t model x in
  Array.init (T.rows y) (fun i -> T.row y i)

let random_row rng = Array.init cols (fun _ -> Rng.uniform rng ~lo:(-1.5) ~hi:1.5)

(* Run [f server] against a daemon serving [ckpt]; always stops and
   joins the server thread, even when [f] raises. *)
let with_server ?(config = Serve.default_config) ckpt f =
  let config = { config with Serve.port = 0; host = "127.0.0.1" } in
  match Serve.create ~config ~checkpoint:ckpt () with
  | Error msg -> Alcotest.failf "Serve.create: %s" msg
  | Ok srv ->
      let th = Thread.create (fun () -> Serve.run ~handle_signals:false srv) () in
      let r = try Ok (f srv) with e -> Error e in
      Serve.stop srv;
      Thread.join th;
      (match r with Ok v -> v | Error e -> raise e)

let with_conn srv f =
  let c = Serve.Client.connect ~port:(Serve.port srv) () in
  let r = try Ok (f c) with e -> Error e in
  Serve.Client.close c;
  match r with Ok v -> v | Error e -> raise e

let check_bits what (expect : float array) (got : float array) =
  Alcotest.(check int) (what ^ ": width") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: bit mismatch at col %d: %h vs %h" what i e got.(i))
    expect

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected HTTP error: %s" what msg

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

(* Flush mode 1: max_batch = 1, so every request is its own batch. *)
let test_parity_per_request () =
  let ckpt = fresh_ckpt () in
  let model = make_model 42 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = env_pool_size }
  in
  with_server ~config ckpt (fun srv ->
      with_conn srv (fun c ->
          let rng = Rng.create ~seed:7 in
          for i = 1 to 10 do
            let row = random_row rng in
            let v, got = ok "logits" (Serve.Client.logits c row) in
            Alcotest.(check int) "version" 1 v;
            check_bits (Printf.sprintf "series %d" i) (offline model [| row |]).(0) got
          done;
          (* Multi-row body: still parity, one logits row per input. *)
          let batch = Array.init 5 (fun _ -> random_row rng) in
          let v, got = ok "batch" (Serve.Client.logits_batch c batch) in
          Alcotest.(check int) "version" 1 v;
          let expect = offline model batch in
          Array.iteri (fun i e -> check_bits (Printf.sprintf "batch row %d" i) e got.(i)) expect));
  Sys.remove ckpt

(* Flush mode 2: coalescing. Eight single-row requests from eight
   concurrent connections against max_batch = 4: whichever requests
   share a block, every answer must still be the row the offline
   engine computes for that client's input. *)
let test_parity_coalesced_flush () =
  let ckpt = fresh_ckpt () in
  let model = make_model 43 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 4; reload_every_s = 0.; pool_size = env_pool_size }
  in
  with_server ~config ckpt (fun srv ->
      let rng = Rng.create ~seed:11 in
      let rows = Array.init 8 (fun _ -> random_row rng) in
      let results = Array.make 8 None in
      let worker i =
        with_conn srv (fun c -> results.(i) <- Some (Serve.Client.logits c rows.(i)))
      in
      let ths = Array.init 8 (fun i -> Thread.create worker i) in
      Array.iter Thread.join ths;
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.failf "client %d got no response" i
          | Some res ->
              let v, got = ok "logits" res in
              Alcotest.(check int) "version" 1 v;
              check_bits (Printf.sprintf "client %d" i) (offline model [| rows.(i) |]).(0) got)
        results);
  Sys.remove ckpt

(* Lanes -------------------------------------------------------------------

   A request that finds a lane free computes at once (trigger
   "free_lane"); requests that arrive while every lane is busy queue,
   and the lanes take them as they finish ("backlog"). The cases below
   read the [serve.batch] events; a slow sink holds a lane inside its
   flush so that a backlog forms deterministically. *)

module Obs = Pnc_obs.Obs

type batch_event = { trigger : string; rows : int; extra : int }

(* Run [f] with a sink collecting every [serve.batch] event; [on_batch]
   runs on the flushing lane's thread, inside its flush, after each
   event is recorded. Returns [f]'s result and the events in emission
   order. *)
let with_batches ?(on_batch = fun (_ : batch_event) -> ()) f =
  let mu = Mutex.create () and seen = ref [] in
  let write ~t:_ ~seq:_ ~name fields =
    if name = "serve.batch" then begin
      let int k =
        match List.assoc_opt k fields with
        | Some (Obs.Int v) -> v
        | _ -> Alcotest.failf "serve.batch event without an int %s" k
      in
      let trigger =
        match List.assoc_opt "trigger" fields with
        | Some (Obs.Str tr) -> tr
        | _ -> Alcotest.fail "serve.batch event without a trigger"
      in
      let e = { trigger; rows = int "rows"; extra = int "extra" } in
      Mutex.lock mu;
      seen := e :: !seen;
      Mutex.unlock mu;
      on_batch e
    end
  in
  Obs.set_sink (Some { Obs.write; flush = ignore });
  let r = try Ok (f ()) with e -> Error e in
  Obs.set_sink None;
  match r with Ok v -> (v, List.rev !seen) | Error e -> raise e

let triggers events = List.map (fun e -> e.trigger) events

let check_triggers what expect got =
  Alcotest.(check (list string)) (what ^ ": flush triggers") expect (triggers got)

(* A counter of the process-wide metrics registry. *)
let counter name =
  match List.assoc_opt name (Obs.metrics_snapshot ()) with
  | Some fields -> (
      match List.assoc_opt "value" fields with
      | Some (Obs.Int v) -> v
      | _ -> Alcotest.failf "%s is not a counter" name)
  | None -> Alcotest.failf "no metric %s" name

(* Flush mode 3: a lone request on an idle daemon. With max_batch far
   above what one request supplies, the request finds a lane free and
   is answered by exactly one flush, at once and bit-identically. *)
let test_lone_request_idle_daemon () =
  let ckpt = fresh_ckpt () in
  let model = make_model 44 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 1024; reload_every_s = 0.; pool_size = env_pool_size }
  in
  with_server ~config ckpt (fun srv ->
      with_conn srv (fun c ->
          let rng = Rng.create ~seed:13 in
          for i = 1 to 5 do
            let row = random_row rng in
            let t0 = Unix.gettimeofday () in
            let (_, got), events =
              with_batches (fun () -> ok "logits" (Serve.Client.logits c row))
            in
            let dt = Unix.gettimeofday () -. t0 in
            check_bits (Printf.sprintf "lone %d" i) (offline model [| row |]).(0) got;
            check_triggers (Printf.sprintf "lone %d" i) [ "free_lane" ] events;
            if dt > 1.0 then Alcotest.failf "lone request %d took %.3f s" i dt
          done));
  Sys.remove ckpt

(* One request larger than max_batch is taken whole by its own lane. *)
let test_oversized_request_flushes_at_once () =
  let ckpt = fresh_ckpt () in
  let model = make_model 58 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 2; reload_every_s = 0.; pool_size = env_pool_size }
  in
  with_server ~config ckpt (fun srv ->
      let rng = Rng.create ~seed:59 in
      let batch = Array.init 5 (fun _ -> random_row rng) in
      let t0 = Unix.gettimeofday () in
      let (_, got), events =
        with_batches (fun () -> with_conn srv (fun c -> ok "oversized" (Serve.Client.logits_batch c batch)))
      in
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 5. then Alcotest.failf "a 5-row request against max_batch = 2 waited %.1f s" dt;
      Array.iteri (fun i e -> check_bits (Printf.sprintf "row %d" i) e got.(i)) (offline model batch);
      check_triggers "oversized request" [ "free_lane" ] events;
      Alcotest.(check (list int)) "one 5-row block" [ 5 ] (List.map (fun e -> e.rows) events));
  Sys.remove ckpt

(* [clients] concurrent connections against a one-domain daemon, each
   sending [per_client] single-row requests, while every flush sleeps
   [hold] seconds inside its lane (the runtime lock is released, so
   the other handlers read and queue meanwhile). Returns the batch
   events; every reply must be bit-identical to the offline logits. *)
let one_lane_under_load ~seed ~max_batch ~clients ~per_client ~hold =
  let ckpt = fresh_ckpt () in
  let model = make_model seed in
  save_model ckpt model;
  let config = { Serve.default_config with max_batch; reload_every_s = 0.; pool_size = 1 } in
  let failures = Atomic.make 0 in
  let (), events =
    with_batches
      ~on_batch:(fun _ -> Thread.delay hold)
      (fun () ->
        with_server ~config ckpt (fun srv ->
            let worker wi =
              let rng = Rng.create ~seed:(seed + 1000 + wi) in
              try
                with_conn srv (fun c ->
                    for _ = 1 to per_client do
                      let row = random_row rng in
                      match Serve.Client.logits c row with
                      | Error _ -> Atomic.incr failures
                      | Ok (_, got) ->
                          if not
                               (Array.for_all2
                                  (fun e g -> Int64.bits_of_float e = Int64.bits_of_float g)
                                  (offline model [| row |]).(0) got)
                          then Atomic.incr failures
                    done)
              with _ -> Atomic.incr failures
            in
            let ths = Array.init clients (fun wi -> Thread.create worker wi) in
            Array.iter Thread.join ths))
  in
  Sys.remove ckpt;
  Alcotest.(check int) "every reply bit-identical to the offline logits" 0 (Atomic.get failures);
  events

(* One lane, 16 clients: requests that arrive while the lane computes
   coalesce, so there are fewer blocks than requests, and no block
   exceeds max_batch rows. *)
let test_one_lane_coalesces () =
  let max_batch = 4 and clients = 16 and per_client = 6 in
  let events = one_lane_under_load ~seed:60 ~max_batch ~clients ~per_client ~hold:2e-3 in
  let requests = clients * per_client in
  Alcotest.(check int) "rows flushed" requests
    (List.fold_left (fun a e -> a + e.rows) 0 events);
  if List.length events >= requests then
    Alcotest.failf "%d blocks for %d requests: nothing coalesced" (List.length events) requests;
  List.iter
    (fun e -> if e.rows > max_batch then Alcotest.failf "a %d-row block over max_batch" e.rows)
    events;
  if not (List.mem "backlog" (triggers events)) then
    Alcotest.fail "no lane took queued work"

(* The starvation bound: a lane whose own request has been taken
   flushes at most one further group before its handler writes the
   reply ([extra] <= 1), however deep the backlog. *)
let test_one_group_after_own () =
  let events = one_lane_under_load ~seed:61 ~max_batch:2 ~clients:16 ~per_client:4 ~hold:2e-3 in
  List.iter
    (fun e -> if e.extra > 1 then Alcotest.failf "a lane flushed %d groups after its own" e.extra)
    events;
  if not (List.exists (fun e -> e.extra = 1) events) then
    Alcotest.fail "no lane took a further group: the backlog never formed"

(* A stop while requests are queued behind a busy lane: the lane (and
   the handlers it hands the backlog to) still answer every admitted
   request, bit-identically; a request that arrives after the stop
   gets a 503. The one-lane daemon's first flush is held until all
   clients' requests have been read and the stop is requested. *)
let test_stop_with_backlog () =
  let ckpt = fresh_ckpt () in
  let model = make_model 69 in
  save_model ckpt model;
  let config = { Serve.default_config with max_batch = 2; reload_every_s = 0.; pool_size = 1 } in
  let clients = 16 in
  let rng = Rng.create ~seed:70 in
  let rows = Array.init clients (fun _ -> random_row rng) in
  let expect = offline model rows in
  let mu = Mutex.create () and cv = Condition.create () in
  let held = ref false and released = ref false and after_stop = ref 0 in
  let on_batch _ =
    Mutex.lock mu;
    if !released then incr after_stop
    else begin
      held := true;
      Condition.broadcast cv;
      while not !released do
        Condition.wait cv mu
      done
    end;
    Mutex.unlock mu
  in
  let release () =
    Mutex.lock mu;
    released := true;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  let is_held () =
    Mutex.lock mu;
    let h = !held in
    Mutex.unlock mu;
    h
  in
  let results = Array.make clients None in
  let (), _events =
    with_batches ~on_batch (fun () ->
        with_server ~config ckpt (fun srv ->
            let port = Serve.port srv in
            let conns = Array.init clients (fun _ -> Serve.Client.connect ~port ()) in
            let base = counter "serve.requests" in
            let ths =
              Array.init clients (fun i ->
                  Thread.create
                    (fun () -> results.(i) <- Some (Serve.Client.logits conns.(i) rows.(i)))
                    ())
            in
            Fun.protect
              ~finally:(fun () ->
                release ();
                Array.iter Thread.join ths;
                Array.iter Serve.Client.close conns)
              (fun () ->
                let deadline = Unix.gettimeofday () +. 10. in
                while not (is_held ()) do
                  if Unix.gettimeofday () > deadline then Alcotest.fail "no flush within 10 s";
                  Thread.delay 1e-3
                done;
                (* Every request read; give the handlers a moment to queue. *)
                while
                  counter "serve.requests" < base + clients && Unix.gettimeofday () < deadline
                do
                  Thread.delay 1e-3
                done;
                Thread.delay 0.05;
                Serve.stop srv)))
  in
  let answered = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok (_, got)) ->
          incr answered;
          check_bits (Printf.sprintf "client %d" i) expect.(i) got
      | Some (Error msg) when count_sub msg "HTTP 503" > 0 -> ()
      | Some (Error msg) -> Alcotest.failf "client %d: %s" i msg
      | None -> Alcotest.failf "client %d got no reply" i)
    results;
  if !after_stop = 0 then Alcotest.fail "no block was flushed after the stop: no backlog";
  if !answered < 2 then Alcotest.failf "only %d requests answered" !answered;
  Sys.remove ckpt

(* 64 connections against max_batch = 4 and a POOL_SIZE-domain daemon:
   many lanes flush at once, each on its own batch tensor, while the
   rest queue. Every row stays bit-exact. *)
let test_overlapping_lanes () =
  let ckpt = fresh_ckpt () in
  let model = make_model 62 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 4; reload_every_s = 0.; pool_size = env_pool_size }
  in
  with_server ~config ckpt (fun srv ->
      let failures = Atomic.make 0 in
      let worker wi =
        let rng = Rng.create ~seed:(300 + wi) in
        with_conn srv (fun c ->
            for _ = 1 to 8 do
              let batch = Array.init (1 + Rng.int rng 3) (fun _ -> random_row rng) in
              match Serve.Client.logits_batch c batch with
              | Error _ -> Atomic.incr failures
              | Ok (_, got) ->
                  Array.iteri
                    (fun i e ->
                      Array.iteri
                        (fun j v ->
                          if Int64.bits_of_float v <> Int64.bits_of_float got.(i).(j) then
                            Atomic.incr failures)
                        e)
                    (offline model batch)
            done)
      in
      let ths = Array.init 64 (fun wi -> Thread.create worker wi) in
      Array.iter Thread.join ths;
      Alcotest.(check int) "no failures at 64 connections" 0 (Atomic.get failures));
  Sys.remove ckpt

(* Malformed bodies must get a 4xx and leave the daemon (and, for
   body-level errors, even the connection) healthy. *)
let test_malformed_bodies () =
  let ckpt = fresh_ckpt () in
  let model = make_model 45 in
  save_model ckpt model;
  let config = { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = env_pool_size } in
  with_server ~config ckpt (fun srv ->
      with_conn srv (fun c ->
          let post body =
            (Serve.Client.request c ~meth:"POST" ~path:"/v1/logits" ~body ()).Serve.Client.status
          in
          Alcotest.(check int) "broken json" 400 (post {|{"series":[1,|});
          Alcotest.(check int) "bad \\u escape" 400 (post {|{"series":[1],"t":"\uZZZZ"}|});
          Alcotest.(check int) "underscore \\u escape" 400 (post {|{"series":[1],"t":"\u00_9"}|});
          Alcotest.(check int) "surrogate \\u escape" 400 (post {|{"series":[1],"t":"\ud800"}|});
          Alcotest.(check int) "ragged batch" 400 (post {|{"batch":[[1,2],[1]]}|});
          Alcotest.(check int) "empty series" 400 (post {|{"series":[]}|});
          Alcotest.(check int) "non-finite" 400 (post {|{"series":[1e999]}|});
          Alcotest.(check int) "neither key" 400 (post {|{"rows":[[1]]}|});
          Alcotest.(check int) "not found" 404
            (Serve.Client.request c ~meth:"GET" ~path:"/nope" ()).Serve.Client.status;
          Alcotest.(check int) "method not allowed" 405
            (Serve.Client.request c ~meth:"GET" ~path:"/v1/logits" ()).Serve.Client.status;
          (* The same connection still serves good requests afterwards. *)
          let row = random_row (Rng.create ~seed:3) in
          let _, got = ok "after errors" (Serve.Client.logits c row) in
          check_bits "after errors" (offline model [| row |]).(0) got));
  Sys.remove ckpt

(* One-pass body decoding vs a tree oracle ----------------------------

   The daemon decodes bodies straight from the bytes into a flat
   buffer. Its contract is the old two-step path: [Json.parse], then
   the shape rules below (first duplicate key wins, exactly one of
   "series"/"batch", non-empty rows of finite numbers, equal widths, at
   most [max_rows] rows). For every body the decoder must return the
   same rows bit for bit, or fail (a 400) where the oracle does. *)

let oracle ~max_rows body =
  let num = function Json.Num v when Float.is_finite v -> v | _ -> raise Exit in
  let row = function
    | Json.List (_ :: _ as xs) -> Array.of_list (List.map num xs)
    | _ -> raise Exit
  in
  match Json.parse body with
  | exception Failure _ -> None
  | j -> (
      try
        match (Json.member "series" j, Json.member "batch" j) with
        | Some s, None -> Some (true, [| row s |])
        | None, Some (Json.List (_ :: _ as rows)) ->
            if List.length rows > max_rows then raise Exit;
            let rows = Array.of_list (List.map row rows) in
            if Array.exists (fun r -> Array.length r <> Array.length rows.(0)) rows then raise Exit;
            Some (false, rows)
        | _ -> raise Exit
      with Exit -> None)

let decoded ~max_rows ?into body =
  match Serve.decode_body ~max_rows ?into body with
  | exception Failure _ -> None
  | b ->
      Some
        ( b.Serve.single,
          Array.init b.Serve.rows (fun r ->
              Array.init b.Serve.cols (fun k -> Float.Array.get b.Serve.data ((r * b.Serve.cols) + k))) )

let same_rows a b =
  match (a, b) with
  | None, None -> true
  | Some (s1, r1), Some (s2, r2) ->
      s1 = s2
      && Array.length r1 = Array.length r2
      && Array.for_all2
           (fun x y ->
             Array.length x = Array.length y
             && Array.for_all2 (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v) x y)
           r1 r2
  | _ -> false

(* Body generator: canonical bodies under whitespace variants, extra,
   duplicate, escaped and nested unknown members, and every malformed
   class of [test_malformed_bodies] (broken JSON, bad \u escapes, ragged
   and empty rows, non-finite and non-number elements, neither or both
   keys), plus too many rows, trailing garbage, non-object bodies and
   over-deep nesting. *)
let body_gen : string Qgen.gen =
 fun rng ->
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let chance k = Rng.int rng k = 0 in
  let ws () = if chance 2 then "" else pick [ " "; "\n"; "\t "; "\r\n  " ] in
  let number () =
    if chance 12 then pick [ "1e999"; "-1e999"; "-0"; "+5"; "1."; ".5"; "00012"; "1.2.3"; "-"; "1e" ]
    else if chance 3 then string_of_int (Rng.int rng 2000 - 1000)
    else Printf.sprintf "%.17g" (Rng.uniform rng ~lo:(-3.) ~hi:3.)
  in
  let element () =
    if chance 25 then pick [ {|"x"|}; "null"; "true"; "[1]"; "{}" ] else ws () ^ number () ^ ws ()
  in
  let row width =
    let width = if chance 20 then width + pick [ -1; 1 ] else width in
    if width <= 0 then "[" ^ ws () ^ "]"
    else "[" ^ String.concat "," (List.init width (fun _ -> element ())) ^ "]"
  in
  let width = 1 + Rng.int rng 5 in
  let series () = row width in
  let batch () =
    if chance 20 then pick [ "[]"; "[1,2]"; {|"rows"|} ]
    else "[" ^ String.concat ("," ^ ws ()) (List.init (1 + Rng.int rng 4) (fun _ -> row width)) ^ "]"
  in
  let rec junk depth =
    match Rng.int rng (if depth > 2 then 4 else 6) with
    | 0 -> number ()
    | 1 -> pick [ {|"s"|}; {|"\né"|}; "true"; "null"; "[]"; "{}" ]
    | 2 -> pick [ {|"\uZZZZ"|}; {|"\u00_9"|}; {|"\ud800"|}; {|"open|}; "tru" ]
    | 3 -> if chance 8 then String.make 600 '[' ^ String.make 600 ']' else "[1,[2,{}]]"
    | 4 -> "[" ^ junk (depth + 1) ^ "," ^ ws () ^ junk (depth + 1) ^ "]"
    | _ -> {|{"k":|} ^ junk (depth + 1) ^ "}"
  in
  let member key value = ws () ^ key ^ ws () ^ ":" ^ ws () ^ value ^ ws () in
  let main = if chance 2 then (pick [ {|"series"|}; {|"ser\u0069es"|} ], series) else (pick [ {|"batch"|}; {|"\u0062atch"|} ], batch) in
  let members =
    (if chance 12 then [] else [ member (fst main) ((snd main) ()) ])
    @ (if chance 4 then [ member (pick [ {|"meta"|}; {|"x"|}; {|"rows"|} ]) (junk 0) ] else [])
    @ (if chance 6 then [ member (pick [ {|"series"|}; {|"batch"|} ]) (pick [ series (); batch (); junk 0 ]) ]
       else [])
  in
  let members = if chance 2 then List.rev members else members in
  let body = ws () ^ "{" ^ String.concat "," members ^ ws () ^ "}" ^ ws () in
  if chance 15 then
    pick
      [
        String.sub body 0 (Rng.int rng (String.length body));
        body ^ " x";
        "[" ^ series () ^ "]";
        series ();
        {|"series"|};
        body ^ "}";
      ]
  else body

let test_decoder_vs_oracle () =
  let max_rows = 3 in
  Qgen.check ~count:3000 ~name:"decode_body = Json.parse + shape rules" ~pp:(Printf.sprintf "%S")
    body_gen
    (fun body ->
      (* A fresh buffer and one too small to hold the body both work. *)
      let expect = oracle ~max_rows body in
      same_rows expect (decoded ~max_rows body)
      && same_rows expect (decoded ~max_rows ~into:(Float.Array.create 1) body))

(* A body decoded where it lies inside a larger string gives the same
   block as the copied body, or fails with the same message — error
   offsets count from the slice. *)
let test_slice_decode () =
  let outcome ?off ?len s =
    match Serve.decode_body ~max_rows:3 ?off ?len s with
    | b ->
        Ok
          ( b.Serve.single,
            b.Serve.rows,
            b.Serve.cols,
            List.init (b.Serve.rows * b.Serve.cols) (fun i ->
                Int64.bits_of_float (Float.Array.get b.Serve.data i)) )
    | exception Failure msg -> Error msg
  in
  let gen rng =
    let alphabet = "{[1, \"]}x" in
    let junk () =
      String.init (Rng.int rng 6) (fun _ -> alphabet.[Rng.int rng (String.length alphabet)])
    in
    let pre = junk () in
    let body = body_gen rng in
    (pre, body, junk ())
  in
  Qgen.check ~count:2000 ~name:"slice decode = decode of the copy"
    ~pp:(fun (pre, body, post) -> Printf.sprintf "%S ^ %S ^ %S" pre body post)
    gen
    (fun (pre, body, post) ->
      outcome ~off:(String.length pre) ~len:(String.length body) (pre ^ body ^ post) = outcome body)

(* A body decoded where it lies stops at its slice end, even when the
   bytes behind it go on with digits (the next pipelined request may lie
   there). Numbers of 1-19 significant digits behind 0-12 leading zeros
   cover both sides of the lexer's eight-digit chunks. Sliced after the
   whole body, every number is bit-equal to [float_of_string_opt] of its
   token; sliced right after a number token, the slice fails exactly as
   its copy does. *)
let test_slice_ends_in_number () =
  let token rng =
    let nsig = List.nth [ 1; 7; 8; 9; 10; 16; 17; 18; 19 ] (Rng.int rng 9) in
    let digit k = if k = 0 then Char.chr (49 + Rng.int rng 9) else Char.chr (48 + Rng.int rng 10) in
    let digits = String.make (Rng.int rng 13) '0' ^ String.init nsig digit in
    let n = String.length digits and point = Rng.int rng (String.length digits + 1) in
    let mantissa =
      if point = n then digits
      else (if point = 0 then "0" else String.sub digits 0 point) ^ "." ^ String.sub digits point (n - point)
    in
    (if Rng.int rng 2 = 0 then "-" else "") ^ mantissa
  in
  let gen rng = (String.make (Rng.int rng 3) '7', List.init (1 + Rng.int rng 4) (fun _ -> token rng)) in
  let outcome ~off ~len s =
    match Serve.decode_body ~max_rows:3 ~off ~len s with
    | b -> Ok (List.init b.Serve.cols (fun i -> Int64.bits_of_float (Float.Array.get b.Serve.data i)))
    | exception Failure msg -> Error msg
  in
  let tail = "1234567890123456789]}" in
  Qgen.check ~count:2000 ~name:"slice ends in a number"
    ~pp:(fun (pre, toks) -> Printf.sprintf "%S ^ %S" pre (String.concat "," toks))
    gen
    (fun (pre, toks) ->
      let off = String.length pre in
      let open_body = {|{"series":[|} ^ String.concat "," toks in
      let body = open_body ^ "]}" in
      let expect =
        Ok (List.map (fun t -> Int64.bits_of_float (Option.get (float_of_string_opt t))) toks)
      in
      outcome ~off ~len:(String.length body) (pre ^ body ^ tail) = expect
      && outcome ~off ~len:(String.length open_body) (pre ^ open_body ^ tail)
         = outcome ~off:0 ~len:(String.length open_body) open_body)

(* Receive path ------------------------------------------------------------

   Random valid requests written as one stream and split at random
   chunk sizes — single bytes included, so heads and bodies straddle
   reads, and later requests arrive pipelined behind earlier ones —
   must read and decode exactly as each request read alone. *)

type wire_request = { text : string; expect_route : Http.route }

let wire_request_gen rng =
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let number () =
    if Rng.int rng 3 = 0 then string_of_int (Rng.int rng 200 - 100)
    else Printf.sprintf "%.17g" (Rng.uniform rng ~lo:(-3.) ~hi:3.)
  in
  let row cols = "[" ^ String.concat "," (List.init cols (fun _ -> number ())) ^ "]" in
  let cols = 1 + Rng.int rng 16 in
  (* Up to 60 rows of 16: bodies past the buffer's initial 4 KiB. *)
  let body =
    match Rng.int rng 4 with
    | 0 -> ""
    | 1 -> {|{"series":|} ^ row cols ^ "}"
    | _ -> {|{"batch":[|} ^ String.concat "," (List.init (1 + Rng.int rng 60) (fun _ -> row cols)) ^ "]}"
  in
  let path, route =
    pick [ ("/v1/logits", Http.Logits); ("/v1/predict", Http.Predict); ("/healthz", Http.Healthz); ("/x", Http.Unknown) ]
  in
  let query = pick [ ""; "?a=1"; "?" ] in
  let meth = if body = "" then pick [ "GET"; "POST" ] else "POST" in
  let extra =
    List.init (Rng.int rng 3) (fun i -> Printf.sprintf "X-Extra-%d:%s v%d " i (pick [ ""; " " ]) i)
  in
  let headers =
    ("Host: localhost" :: extra)
    @ if body = "" && Rng.bool rng then [] else [ Printf.sprintf "Content-Length: %d" (String.length body) ]
  in
  let version = pick [ "HTTP/1.1"; "HTTP/1.0" ] in
  {
    text =
      Printf.sprintf "%s %s%s %s\r\n%s\r\n\r\n%s" meth path query version
        (String.concat "\r\n" headers) body;
    expect_route = route;
  }

(* What the server sees of one request: its parsed head and its block
   (or the decode error), copied out of the connection's records. *)
let received c =
  let r = Serve.read_request c in
  let block =
    if r.Http.body_len = 0 then None
    else
      Some
        (match Serve.decode_request ~max_rows:1024 c with
        | b ->
            Ok
              ( b.Serve.single,
                b.Serve.rows,
                b.Serve.cols,
                List.init (b.Serve.rows * b.Serve.cols) (fun i ->
                    Int64.bits_of_float (Float.Array.get b.Serve.data i)) )
        | exception Failure msg -> Error msg)
  in
  (r.Http.meth, r.Http.route, r.Http.http11, r.Http.close, r.Http.body_len, block)

(* Write [chunks] of [stream] into one end of a socket pair from a
   thread, closing it after the last, while [f] reads the other end. *)
let with_stream stream chunks f =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        ignore
          (List.fold_left
             (fun off len ->
               let len = min len (String.length stream - off) in
               if len > 0 then ignore (Unix.write_substring w stream off len);
               off + len)
             0 chunks);
        Unix.close w)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join writer;
      Unix.close r)
    (fun () -> f (Serve.conn ~max_body:(1 lsl 20) r))

let read_alone req =
  with_stream req.text [ String.length req.text ] (fun c ->
      let got = received c in
      (match Serve.read_request c with
      | _ -> Alcotest.fail "a second request out of one"
      | exception End_of_file -> ());
      got)

let test_split_stream () =
  let gen rng =
    let reqs = List.init (1 + Rng.int rng 5) (fun _ -> wire_request_gen rng) in
    let total = List.fold_left (fun n r -> n + String.length r.text) 0 reqs in
    let mode = Rng.int rng 3 in
    let rec chunks left =
      if left <= 0 then []
      else
        let k =
          match mode with
          | 0 -> 1
          | 1 -> 1 + Rng.int rng 16
          | _ -> if Rng.bool rng then 1 else 1 + Rng.int rng 5000
        in
        k :: chunks (left - k)
    in
    (reqs, chunks total)
  in
  Qgen.check ~count:150 ~name:"split, pipelined stream = requests read alone"
    ~pp:(fun (reqs, chunks) ->
      Printf.sprintf "%d requests in %d chunks: %s" (List.length reqs) (List.length chunks)
        (String.concat "" (List.map (fun r -> r.text) reqs)))
    gen
    (fun (reqs, chunks) ->
      let stream = String.concat "" (List.map (fun r -> r.text) reqs) in
      let alone = List.map read_alone reqs in
      List.iter
        (fun ((_, route, _, _, _, _), r) ->
          Alcotest.(check bool) "route" true (route = r.expect_route))
        (List.combine alone reqs);
      with_stream stream chunks (fun c ->
          List.for_all (fun a -> received c = a) alone
          && match Serve.read_request c with _ -> false | exception End_of_file -> true))

(* Head framing --------------------------------------------------------------

   The in-place head parser against the reference, the string-splitting
   parser it replaced ([Http_ref]). Each generated stream is one
   request, a possible pipelined second request behind it, written
   whole into a socket pair before either side reads, so both readers
   see the same bytes at the same moments. Both must reach the same
   verdict on the first request — method, route, HTTP/1.1 and close
   flags, body — or the same rejection, and then the same on the next
   one. The heads mix valid and lenient Content-Length spellings,
   duplicates and conflicts, Transfer-Encoding, Connection option
   lists, lines without ':', obs-fold continuations, bare LF and
   stray CR line ends, and padding past the 16 KiB head cap. *)

let head_stream_gen rng =
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let meth = pick [ "GET"; "POST"; "POST"; "PUT"; "get"; "" ] in
  let path =
    pick
      [ "/v1/logits"; "/v1/predict"; "/healthz"; "/metrics"; "/x"; "/v1/logits?a=1"; "/healthz?"; ""; "/v1/logits/" ]
  in
  let version =
    if Rng.int rng 6 > 0 then pick [ "HTTP/1.1"; "HTTP/1.0" ] else pick [ "HTTP/2"; "http/1.1"; "HTTP/1.1 " ]
  in
  let request_line =
    match Rng.int rng 16 with
    | 0 -> meth ^ "  " ^ path ^ " " ^ version
    | 1 -> meth ^ " " ^ path
    | 2 -> meth ^ " " ^ path ^ " " ^ version ^ "\r"
    | _ -> meth ^ " " ^ path ^ " " ^ version
  in
  let case name = String.map (fun ch -> if Rng.bool rng then Char.uppercase_ascii ch else ch) name in
  let ws () = pick [ ""; ""; " "; "\t"; "  " ] in
  let length () =
    pick [ "0"; "5"; "5"; "12"; "+5"; "0x5"; "5_"; ""; "-1"; "99999999999999999999"; "70000"; "005"; "5 5" ]
  in
  let header () =
    match Rng.int rng 11 with
    | 0 | 1 | 2 -> ws () ^ case "Content-Length" ^ ws () ^ ":" ^ ws () ^ length () ^ ws ()
    | 3 -> case "Transfer-Encoding" ^ ":" ^ ws () ^ pick [ "chunked"; "identity"; "" ]
    | 4 | 5 ->
        case "Connection" ^ ":" ^ ws ()
        ^ pick [ "close"; "Close"; "keep-alive"; "keep-alive, close"; "closed"; "x-close, CLOSE "; ""; "," ]
    | 6 -> "Host: localhost"
    | 7 -> pick [ "no colon here"; "   "; "Content-Length 5" ]
    | 8 -> pick [ " Content-Length: 5"; "\tConnection: close"; " folded continuation" ]
    | 9 -> pick [ ":5"; "Content-Length:"; "content-length: 5\r"; "Connection:close\r\r" ]
    | _ -> Printf.sprintf "X-%d:%sv" (Rng.int rng 100) (ws ())
  in
  let headers = List.init (Rng.int rng 6) (fun _ -> header ()) in
  (* At most one pad, so a stream stays well inside a socket buffer. *)
  let headers =
    if Rng.int rng 4 > 0 then headers
    else ("X-Pad: " ^ String.make (pick [ 10; 5000; 16300; 17000; 33000 ]) 'a') :: headers
  in
  let sep () = pick [ "\r\n"; "\r\n"; "\r\n"; "\r\n"; "\n"; "\r\r\n" ] in
  let head = List.fold_left (fun acc h -> acc ^ sep () ^ h) request_line headers in
  let body = String.make (pick [ 0; 5; 12 ]) 'b' in
  head ^ "\r\n\r\n" ^ body ^ if Rng.bool rng then "GET /healthz HTTP/1.1\r\n\r\n" else ""

(* [f] reads one end of a socket pair that already holds all of
   [stream], the other end closed. *)
let with_written stream f =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      let n = String.length stream in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring w stream !off (n - !off)
      done;
      Unix.close w;
      f r)

(* A reader's verdicts on a stream: the first request, and the next
   one if the first was read. *)
let verdicts next =
  match next () with Http_ref.Request _ as v -> [ v; next () ] | v -> [ v ]

let test_head_parser_vs_reference () =
  let max_body = 1 lsl 16 in
  let reference stream =
    with_written stream (fun fd ->
        let rx = Http_ref.bufconn ~max_body fd in
        verdicts (fun () -> Http_ref.verdict rx))
  in
  let in_place stream =
    with_written stream (fun fd ->
        let c = Http.conn ~max_body fd in
        verdicts (fun () -> Http_ref.http_verdict c))
  in
  let show vs = String.concat "; " (List.map Http_ref.show vs) in
  Qgen.check ~count:600 ~name:"in-place head parser = reference"
    ~pp:(fun stream ->
      let s = if String.length stream > 400 then String.sub stream 0 400 ^ "..." else stream in
      Printf.sprintf "%S (reference: %s; in place: %s)" s (show (reference stream)) (show (in_place stream)))
    head_stream_gen
    (fun stream -> reference stream = in_place stream)

(* Reading a head and writing one allocate nothing: the head is parsed
   into the connection's request record, and the response head is
   written digit by digit into the caller's bytes. 200 pipelined
   requests with bodies (headers in mixed case, a Connection option
   list, a repeated Content-Length) are read after one warm-up read
   has grown nothing: the buffer never needs to. *)
let test_head_alloc () =
  let body = {|{"series":[1,2,3]}|} in
  let one i =
    Printf.sprintf
      "POST /v1/logits?i=%d HTTP/1.1\r\nHost: localhost\r\ncontent-type: application/json\r\n\
       Connection: keep-alive, x\r\nContent-Length: %d\r\nCONTENT-LENGTH:  %d \r\n\r\n%s"
      i (String.length body) (String.length body) body
  in
  let n = 200 in
  let stream = String.concat "" (List.init (n + 1) one) in
  with_written stream (fun fd ->
      let c = Http.conn ~max_body:(1 lsl 20) fd in
      ignore (Http.read_request c);
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Http.read_request c)
      done;
      let words = Gc.minor_words () -. w0 in
      let r = c.Http.req in
      Alcotest.(check bool) "last request read" true
        (r.Http.meth = Http.Post && r.route = Http.Logits && r.http11 && (not r.close)
        && r.body_len = String.length body);
      if words > 0. then Alcotest.failf "%.0f minor words to read %d request heads (bound 0)" words n);
  let tx = Bytes.create Http.max_response_head in
  let cases = [ (200, true, 1234); (400, false, 0); (404, true, 27); (405, false, 33); (503, false, max_int) ] in
  List.iter
    (fun (status, keep_alive, length) ->
      let h = Http.write_response_head tx ~status ~keep_alive ~length in
      Alcotest.(check string) "response head"
        (Printf.sprintf
           "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n"
           status
           (match status with
           | 200 -> "OK"
           | 400 -> "Bad Request"
           | 404 -> "Not Found"
           | 405 -> "Method Not Allowed"
           | _ -> "Service Unavailable")
           length
           (if keep_alive then "keep-alive" else "close"))
        (Bytes.sub_string tx 0 h))
    cases;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    ignore (Http.write_response_head tx ~status:200 ~keep_alive:(i land 1 = 0) ~length:(i * 37))
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 0. then Alcotest.failf "%.0f minor words to write 1000 response heads (bound 0)" words

(* Decoding allocates a constant per body, whatever its size: each
   number goes straight into [into] through [Json.Cursor.number_into]
   and each row is read by a loop, so what is left is the cursor, the
   decoder's closures and refs, and the result record. An 8x64 and a
   32x64 body decoded into a large-enough [into] each stay within 128
   words; one boxed float per number would be 1,024 and 4,096. *)
let test_decoder_alloc_per_body () =
  let rng = Rng.create ~seed:52 in
  let body rows =
    Json.render
      (Json.Obj
         [
           ( "batch",
             Json.List
               (List.init rows (fun _ ->
                    Json.List (List.init 64 (fun _ -> Json.Num (Rng.uniform rng ~lo:(-2.) ~hi:2.)))))
           );
         ])
  in
  let into = Float.Array.create (32 * 64) in
  List.iter
    (fun rows ->
      let body = body rows in
      ignore (Serve.decode_body ~max_rows:1024 ~into body);
      let w0 = Gc.minor_words () in
      let b = Serve.decode_body ~max_rows:1024 ~into body in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool) "decoded into [into]" true (b.Serve.data == into);
      if words > 128. then
        Alcotest.failf "%.0f minor words to decode a %dx64 body (bound 128)" words rows)
    [ 8; 32 ]

let realizations () =
  match List.assoc_opt "eval.realizations" (Obs.metrics_snapshot ()) with
  | Some fields -> ( match List.assoc_opt "value" fields with Some (Obs.Int n) -> n | _ -> -1)
  | None -> -1

(* What the daemon allocates and promotes per request, on the
   benchmark's shape: an ADAPT net of hidden width 4 over 2 classes,
   32-row bodies of 64-step series. The daemon runs on one domain, the
   caller's, and its client on a domain of its own, so the caller's GC
   counters are the daemon's: the accept loop, the handler's read,
   decode, flush and reply rendering. The measured window runs the
   caller's domain on the daemon's 32k-word minor heap
   ([Pool.minor_heap_words], which `adapt_pnc serve` gives its own
   domain).

   Words: the circuit is realized when a model version loads, never per
   flush (a realization per flush made 2.6k words); the head is parsed
   in place, the response head written into the connection's bytes, and
   the admission entry, mailbox and decode block are the connection's
   own, reused by each request. What is left is about 560 words: 64
   rendered numbers at about 6 words each (a %.17g string and its boxed
   argument) and the forward's 130. The bound is 750, where a
   string-split head, fresh per-request records and a Printf'd response
   head made 1,012.

   Promoted words: a minor collection promotes whatever is young and
   live at that moment. With per-request records, replies holding the
   block's logits and a boxed histogram sum per observation, that was
   2.4 words per request here (about 2.3 in the benchmark's daemon), so
   the major heap grew with uptime. Now about 0.2; the bound is 0.45, a
   fifth of the old figure. A reload realizes the new version once. *)
let test_words_per_request () =
  let ckpt = fresh_ckpt () in
  let net seed = Network.create ~hidden:4 (Rng.create ~seed) Network.Adapt ~inputs:1 ~classes:2 in
  let model_a = Model.Circuit (net 71) and model_b = Model.Circuit (net 72) in
  save_model ckpt model_a;
  let rng = Rng.create ~seed:73 in
  let rows = Array.init 32 (fun _ -> Array.init 64 (fun _ -> Rng.uniform rng ~lo:(-1.5) ~hi:1.5)) in
  let body =
    Json.render
      (Json.Obj
         [
           ( "batch",
             Json.List
               (Array.to_list
                  (Array.map (fun r -> Json.List (Array.to_list (Array.map (fun v -> Json.Num v) r)))
                     rows)) );
         ])
  in
  let config =
    { Serve.default_config with max_batch = 64; reload_every_s = 0.02; pool_size = 1 }
  in
  let r0 = realizations () in
  with_server ~config ckpt (fun srv ->
      Alcotest.(check int) "realizations at load" 1 (realizations () - r0);
      (* The client writes one pre-rendered request and reads each reply
         into its receive buffer, so its own collections, which stop the
         daemon's domain too, stay rare. *)
      let request =
        Printf.sprintf "POST /v1/logits HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
          (String.length body) body
      in
      let client n () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Serve.port srv));
            let c = Http.conn ~max_body:max_int fd in
            for _ = 1 to n do
              Http.write_all fd request;
              let status, reply = Http.read_response c in
              if status <> 200 then failwith reply
            done)
      in
      Domain.join (Domain.spawn (client 20));
      let n = 2000 in
      let heap = (Gc.get ()).minor_heap_size in
      Gc.set { (Gc.get ()) with minor_heap_size = Pnc_util.Pool.minor_heap_words };
      let _, p0, _ = Gc.counters () in
      let w0 = Gc.minor_words () in
      Domain.join (Domain.spawn (client n));
      let w1 = Gc.minor_words () in
      let _, p1, _ = Gc.counters () in
      Gc.set { (Gc.get ()) with minor_heap_size = heap };
      let per_request = (w1 -. w0) /. float_of_int n in
      let promoted = (p1 -. p0) /. float_of_int n in
      if per_request > 750. then
        Alcotest.failf "%.0f minor words per 32-row request in the daemon (bound 750)" per_request;
      if promoted > 0.45 then
        Alcotest.failf "%.2f promoted words per 32-row request in the daemon (bound 0.45)" promoted;
      Alcotest.(check int) "no realization per flush" 1 (realizations () - r0);
      save_model ckpt model_b;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Serve.model_version srv < 2 do
        if Unix.gettimeofday () > deadline then Alcotest.fail "checkpoint swap never picked up";
        Thread.delay 0.01
      done;
      Alcotest.(check int) "one realization per model version" 2 (realizations () - r0);
      with_conn srv (fun c ->
          let v, got = ok "post-reload" (Serve.Client.logits_batch c rows) in
          Alcotest.(check int) "reloaded version" 2 v;
          Array.iteri
            (fun i e -> check_bits (Printf.sprintf "post-reload row %d" i) e got.(i))
            (offline model_b rows)));
  Sys.remove ckpt

(* The daemon's peak resident set, in kB ([None] off Linux). *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
        (String.split_on_char '\n' status)

(* A 4 MiB body of '[' (inside max_body) once recursed per byte and
   took the process from 4 MB to 488 MB peak RSS. With the depth cap it
   is one 400 that leaves the connection serving, and the peak grows by
   at most the body's few copies in flight (client request, socket
   read) — bounded here at 64 MB. *)
let test_deep_nesting_body () =
  let ckpt = fresh_ckpt () in
  let model = make_model 53 in
  save_model ckpt model;
  let config = { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = env_pool_size } in
  with_server ~config ckpt (fun srv ->
      with_conn srv (fun c ->
          let body = String.make config.Serve.max_body '[' in
          let before = vm_hwm_kb () in
          let r = Serve.Client.request c ~meth:"POST" ~path:"/v1/logits" ~body () in
          Alcotest.(check int) "status" 400 r.Serve.Client.status;
          Alcotest.(check bool) "typed depth error" true (count_sub r.Serve.Client.body "nesting too deep" = 1);
          (match (before, vm_hwm_kb ()) with
          | Some b, Some a when a - b > 64 * 1024 ->
              Alcotest.failf "peak RSS grew by %d kB on one deep body (bound 65536 kB)" (a - b)
          | _ -> ());
          let row = random_row (Rng.create ~seed:54) in
          let _, got = ok "after deep body" (Serve.Client.logits c row) in
          check_bits "after deep body" (offline model [| row |]).(0) got));
  Sys.remove ckpt

(* Hot reload under load: requests from [conns] concurrent keep-alive
   connections racing a checkpoint swap must each match the offline
   logits of the model version they were answered with — never a torn
   or mixed result. *)
let test_hot_reload_mid_load conns () =
  let ckpt = fresh_ckpt () in
  let model_a = make_model 46 in
  let model_b = make_model 47 in
  save_model ckpt model_a;
  let config =
    {
      Serve.default_config with
      max_batch = 4;
      reload_every_s = 0.02;
      pool_size = env_pool_size;
    }
  in
  with_server ~config ckpt (fun srv ->
      (* Sanity before the swap. *)
      with_conn srv (fun c ->
          let row = random_row (Rng.create ~seed:5) in
          let v, got = ok "pre-reload" (Serve.Client.logits c row) in
          Alcotest.(check int) "initial version" 1 v;
          check_bits "pre-reload" (offline model_a [| row |]).(0) got);
      let errors = ref [] in
      let err_mu = Mutex.create () in
      let saw_v2 = Atomic.make false in
      let worker wi =
        let rng = Rng.create ~seed:(100 + wi) in
        with_conn srv (fun c ->
            for i = 1 to 40 do
              let row = random_row rng in
              match Serve.Client.logits c row with
              | Error msg ->
                  Mutex.lock err_mu;
                  errors := Printf.sprintf "worker %d req %d: %s" wi i msg :: !errors;
                  Mutex.unlock err_mu
              | Ok (v, got) ->
                  if v >= 2 then Atomic.set saw_v2 true;
                  let m = if v = 1 then model_a else model_b in
                  let expect = (offline m [| row |]).(0) in
                  Array.iteri
                    (fun j e ->
                      if Int64.bits_of_float e <> Int64.bits_of_float got.(j) then begin
                        Mutex.lock err_mu;
                        errors :=
                          Printf.sprintf "worker %d req %d: version %d parity break at col %d"
                            wi i v j
                          :: !errors;
                        Mutex.unlock err_mu
                      end)
                    expect
            done)
      in
      let ths = Array.init conns (fun wi -> Thread.create worker wi) in
      (* Swap the checkpoint while the workers hammer the daemon. *)
      Thread.delay 0.05;
      save_model ckpt model_b;
      Array.iter Thread.join ths;
      (match !errors with [] -> () | e :: _ -> Alcotest.fail e);
      (* The reload must land eventually; wait for it if the workers
         finished before the poller noticed the swap. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        if Atomic.get saw_v2 then ()
        else if Serve.model_version srv >= 2 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "checkpoint swap never picked up"
        else begin
          Thread.delay 0.02;
          wait ()
        end
      in
      wait ();
      with_conn srv (fun c ->
          let row = random_row (Rng.create ~seed:6) in
          let v, got = ok "post-reload" (Serve.Client.logits c row) in
          Alcotest.(check int) "reloaded version" 2 v;
          check_bits "post-reload" (offline model_b [| row |]).(0) got));
  Sys.remove ckpt

(* Kill and restart: a second daemon over the same checkpoint starts
   clean (version resets to 1), serves identical logits, and the dead
   daemon's port actually stopped listening. *)
let test_kill_and_restart () =
  let ckpt = fresh_ckpt () in
  let model = make_model 48 in
  save_model ckpt model;
  let config =
    {
      Serve.default_config with
      max_batch = 2;
      reload_every_s = 0.;
      pool_size = env_pool_size;
    }
  in
  let row = random_row (Rng.create ~seed:9) in
  let expect = (offline model [| row |]).(0) in
  let first_port = ref 0 in
  let first =
    with_server ~config ckpt (fun srv ->
        first_port := Serve.port srv;
        with_conn srv (fun c -> ok "first run" (Serve.Client.logits c row)))
  in
  check_bits "first run" expect (snd first);
  (* The first daemon is gone: connecting to its port must fail. *)
  (match Serve.Client.connect ~port:!first_port () with
  | exception Unix.Unix_error _ -> ()
  | c ->
      Serve.Client.close c;
      Alcotest.fail "old port still accepting after shutdown");
  let second =
    with_server ~config ckpt (fun srv ->
        with_conn srv (fun c -> ok "second run" (Serve.Client.logits c row)))
  in
  Alcotest.(check int) "restart resets version" 1 (fst second);
  check_bits "restart parity" expect (snd second);
  Sys.remove ckpt

(* Graceful drain under concurrency: many keep-alive clients, every
   response answered and bit-exact, and [run] returns after [stop]. *)
let test_concurrent_drain () =
  let ckpt = fresh_ckpt () in
  let model = make_model 49 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 8; reload_every_s = 0.; pool_size = 2 }
  in
  with_server ~config ckpt (fun srv ->
      let failures = Atomic.make 0 in
      let worker wi =
        let rng = Rng.create ~seed:(200 + wi) in
        with_conn srv (fun c ->
            for _ = 1 to 10 do
              let n = 1 + Rng.int rng 3 in
              let batch = Array.init n (fun _ -> random_row rng) in
              match Serve.Client.logits_batch c batch with
              | Error _ -> Atomic.incr failures
              | Ok (_, got) ->
                  let expect = offline model batch in
                  Array.iteri
                    (fun i e ->
                      Array.iteri
                        (fun j v ->
                          if Int64.bits_of_float v <> Int64.bits_of_float got.(i).(j) then
                            Atomic.incr failures)
                        e)
                    expect
            done)
      in
      let ths = Array.init 16 (fun wi -> Thread.create worker wi) in
      Array.iter Thread.join ths;
      Alcotest.(check int) "no failures under concurrency" 0 (Atomic.get failures));
  (* with_server joining [run] without a hang IS the drain check. *)
  Sys.remove ckpt

(* Connection churn: 200 connect/request/close cycles leave no handler
   behind while the daemon keeps running — each one leaves the live
   count when its connection closes, so nothing accumulates. *)
let test_handler_churn () =
  let ckpt = fresh_ckpt () in
  save_model ckpt (make_model 50);
  let config = { Serve.default_config with reload_every_s = 0.; pool_size = env_pool_size } in
  with_server ~config ckpt (fun srv ->
      let rng = Rng.create ~seed:51 in
      for _ = 1 to 200 do
        with_conn srv (fun c -> ignore (ok "churn" (Serve.Client.logits c (random_row rng))))
      done;
      (* A handler leaves the count after the client's close reaches
         it; allow it a bounded moment to observe that. *)
      let deadline = Unix.gettimeofday () +. 10. in
      while Serve.live_handlers srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 1e-3
      done;
      Alcotest.(check int) "no live handlers after churn" 0 (Serve.live_handlers srv));
  Sys.remove ckpt

(* Domains ------------------------------------------------------------------

   The daemon runs on [pool_size] domains: connection k's handler runs
   on domain k mod n, and [run] joins every domain it started. *)

(* Two connections on a 2-domain daemon, taking turns: every request
   finds a lane free and its handler computes it, so the serve.batch
   events name both domains, three flushes each. *)
let test_flushes_spread_over_domains () =
  let ckpt = fresh_ckpt () in
  let model = make_model 63 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = 2 }
  in
  let mu = Mutex.create () and started = ref [] and flushed = ref [] in
  let int_field name fields =
    match List.assoc_opt name fields with
    | Some (Obs.Int d) -> d
    | _ -> Alcotest.failf "event without an int %s field" name
  in
  let write ~t:_ ~seq:_ ~name fields =
    Mutex.lock mu;
    (match name with
    | "serve.start" -> started := int_field "domains" fields :: !started
    | "serve.batch" -> flushed := int_field "domain" fields :: !flushed
    | _ -> ());
    Mutex.unlock mu
  in
  Obs.set_sink (Some { Obs.write; flush = ignore });
  Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () ->
      with_server ~config ckpt (fun srv ->
          let rng = Rng.create ~seed:64 in
          let c0 = Serve.Client.connect ~port:(Serve.port srv) () in
          let c1 = Serve.Client.connect ~port:(Serve.port srv) () in
          Fun.protect
            ~finally:(fun () -> List.iter Serve.Client.close [ c0; c1 ])
            (fun () ->
              for i = 1 to 3 do
                List.iter
                  (fun c ->
                    let row = random_row rng in
                    let _, got = ok "spread" (Serve.Client.logits c row) in
                    check_bits (Printf.sprintf "request %d" i) (offline model [| row |]).(0) got)
                  [ c0; c1 ]
              done)));
  Alcotest.(check (list int)) "serve.start domains" [ 2 ] !started;
  Alcotest.(check (list int)) "serve.batch domains" [ 0; 0; 0; 1; 1; 1 ] (List.sort compare !flushed);
  Sys.remove ckpt

(* Each OCaml 5 domain has its own minor heap. The handler domains
   [run] spawns start through [Pool.spawn], which sets theirs to
   [Pool.minor_heap_words] (32k words); the caller's domain keeps its
   own. A flush runs on its handler's domain,
   so the sink reads that domain's heap size for each [serve.batch]. *)
let test_handler_domain_minor_heap () =
  let ckpt = fresh_ckpt () in
  save_model ckpt (make_model 69);
  let config =
    { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = 2 }
  in
  let mu = Mutex.create () and heaps = ref [] in
  let write ~t:_ ~seq:_ ~name fields =
    if name = "serve.batch" then begin
      let domain =
        match List.assoc_opt "domain" fields with
        | Some (Obs.Int d) -> d
        | _ -> Alcotest.fail "serve.batch event without an int domain"
      in
      let words = (Gc.get ()).minor_heap_size in
      Mutex.lock mu;
      heaps := (domain, words) :: !heaps;
      Mutex.unlock mu
    end
  in
  let caller = (Gc.get ()).minor_heap_size in
  Obs.set_sink (Some { Obs.write; flush = ignore });
  Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () ->
      with_server ~config ckpt (fun srv ->
          let rng = Rng.create ~seed:70 in
          (* Connections 0 and 1 land on domains 0 and 1. *)
          with_conn srv (fun c0 ->
              with_conn srv (fun c1 ->
                  List.iter
                    (fun c -> ignore (ok "heap" (Serve.Client.logits c (random_row rng))))
                    [ c0; c1 ]))));
  Alcotest.(check (list (pair int int)))
    "minor heap words per flushing domain"
    [ (0, caller); (1, Pnc_util.Pool.minor_heap_words) ]
    (List.sort compare !heaps);
  Alcotest.(check int) "caller's heap untouched" caller (Gc.get ()).minor_heap_size;
  Sys.remove ckpt

(* Handler systhreads of one domain compute at the same time. Each
   checks the domain's evaluation workspace out, or builds its own while
   another thread holds it, so with shapes mixed across threads (rows,
   steps, filter order) every forward's logits equal the sequential
   run's, bit for bit. *)
let test_systhreads_mixed_shapes () =
  let rng = Rng.create ~seed:93 in
  let models =
    [
      make_model 94;
      Model.Circuit (Network.create ~hidden:4 rng Network.Ptpnc ~inputs:1 ~classes:2);
    ]
  in
  let xs =
    List.map
      (fun (rows, time) -> T.uniform rng ~rows ~cols:time ~lo:(-1.) ~hi:1.)
      [ (32, 64); (5, 64); (32, 16); (120, 64) ]
  in
  let cases = Array.of_list (List.concat_map (fun m -> List.map (fun x -> (m, x)) xs) models) in
  let n = Array.length cases in
  let forward k =
    let m, x = cases.(k mod n) in
    let draw =
      Pnc_core.Variation.make_draw (Rng.create ~seed:k) (Pnc_core.Variation.uniform 0.1)
    in
    Model.logits_batch_t ~draw m x
  in
  let expected = Array.init n forward in
  (* The threads yield between forwards, as handlers block on their
     sockets between requests, so they walk the cases nearly in step,
     eight forwards of a shape at a time: when the runtime's 50 ms tick
     switches threads mid-forward, the next thread is about to run the
     same shape. 0.5 s on one core spans several ticks. *)
  let rounds = 200 and threads = 4 in
  let mismatches = Atomic.make 0 in
  let worker () =
    for j = 0 to rounds - 1 do
      let k = j / 8 mod n in
      if not (T.equal_eps ~eps:0. (forward k) expected.(k)) then Atomic.incr mismatches;
      Thread.yield ()
    done
  in
  List.iter Thread.join (List.init threads (fun _ -> Thread.create worker ()));
  Alcotest.(check int) "forwards that differ from the sequential run" 0 (Atomic.get mismatches)

(* Start, serve and stop a 4-domain daemon 50 times. Each cycle spawns
   n - 1 = 3 handler domains, so a [run] that left them running would
   pass OCaml 5.1's limit of 128 domains within the loop. Each cycle
   answers requests on four connections, one per domain, and stops
   while four clients keep requests in flight: an admitted request
   gets its bit-exact logits, a late one a 503 or a closed
   connection. *)
let test_no_domain_leak () =
  let ckpt = fresh_ckpt () in
  let model = make_model 65 in
  save_model ckpt model;
  let n = 4 in
  let config = { Serve.default_config with max_batch = 4; reload_every_s = 0.; pool_size = n } in
  let rng = Rng.create ~seed:66 in
  let rows = Array.init 8 (fun _ -> random_row rng) in
  let expect = offline model rows in
  for cycle = 1 to 50 do
    let answered = Atomic.make 0 and bad = Atomic.make 0 in
    let client ~port k () =
      match Serve.Client.connect ~port () with
      | exception Unix.Unix_error _ -> ()
      | c ->
          let rec loop i =
            let row = (k + i) mod Array.length rows in
            match Serve.Client.logits c rows.(row) with
            | Ok (_, got) ->
                if Array.for_all2 (fun e g -> Int64.bits_of_float e = Int64.bits_of_float g)
                     expect.(row) got
                then Atomic.incr answered
                else Atomic.incr bad;
                loop (i + 1)
            | Error msg -> if count_sub msg "HTTP 503" = 0 then Atomic.incr bad
            | exception (Unix.Unix_error _ | End_of_file | Failure _) -> ()
          in
          loop 0;
          Serve.Client.close c
    in
    let clients, srv =
      with_server ~config ckpt (fun srv ->
          let port = Serve.port srv in
          (* Connection k lands on domain k. *)
          let conns = List.init n (fun _ -> Serve.Client.connect ~port ()) in
          Fun.protect
            ~finally:(fun () -> List.iter Serve.Client.close conns)
            (fun () ->
              List.iteri
                (fun i c ->
                  let _, got = ok "cycle" (Serve.Client.logits c rows.(i)) in
                  check_bits (Printf.sprintf "cycle %d, connection %d" cycle i) expect.(i) got)
                conns);
          let clients = List.init 4 (fun k -> Thread.create (client ~port k) ()) in
          let deadline = Unix.gettimeofday () +. 10. in
          while Atomic.get answered < 4 do
            if Unix.gettimeofday () > deadline then
              Alcotest.failf "cycle %d: clients answered %d requests in 10 s" cycle
                (Atomic.get answered);
            Thread.delay 1e-3
          done;
          (clients, srv))
    in
    Alcotest.(check int) (Printf.sprintf "cycle %d: live handlers after run" cycle) 0
      (Serve.live_handlers srv);
    List.iter Thread.join clients;
    Alcotest.(check int) (Printf.sprintf "cycle %d: bad replies" cycle) 0 (Atomic.get bad)
  done;
  Sys.remove ckpt

(* The daemon runs pool_size domains and OCaml 5.1 at most 128:
   [create] refuses a larger [pool_size] before any socket is bound,
   and the default fits. *)
let test_pool_size_over_limit_rejected () =
  let ckpt = fresh_ckpt () in
  save_model ckpt (make_model 67);
  let config = { Serve.default_config with port = 0; pool_size = 129 } in
  (match Serve.create ~config ~checkpoint:ckpt () with
  | Ok _ -> Alcotest.fail "pool_size 129 accepted"
  | Error msg ->
      Alcotest.(check bool) ("error names the limit: " ^ msg) true (count_sub msg "<= 128" > 0));
  Alcotest.(check bool) "default fits" true (Serve.default_config.pool_size <= 128);
  Sys.remove ckpt

(* When the process has too few domains left for the daemon, [run]
   raises instead of serving, after ending the domains it did start
   and closing its socket. A 3-domain daemon spawns two handler
   domains. The test holds every domain slot but one, so the first
   handler domain starts and the second fails; the slot is free again
   once [run] has raised. *)
let test_spawn_failure_cleans_up () =
  let free = 1 in
  let ckpt = fresh_ckpt () in
  save_model ckpt (make_model 68);
  let config = { Serve.default_config with port = 0; reload_every_s = 0.; pool_size = 3 } in
  let srv =
    match Serve.create ~config ~checkpoint:ckpt () with
    | Ok srv -> srv
    | Error msg -> Alcotest.failf "Serve.create: %s" msg
  in
  (* A gate parks the domains spawned on it until it is released. *)
  let gates = ref [] in
  let gate () =
    let m = Mutex.create () in
    Mutex.lock m;
    let g = (m, ref [], ref true) in
    gates := g :: !gates;
    g
  in
  let park (m, ds, _) = ds := Domain.spawn (fun () -> Mutex.lock m; Mutex.unlock m) :: !ds in
  let release (m, ds, shut) =
    if !shut then begin
      shut := false;
      Mutex.unlock m;
      List.iter Domain.join !ds
    end
  in
  let spare = gate () and rest = gate () and probe = gate () in
  Fun.protect
    ~finally:(fun () -> List.iter release !gates)
    (fun () ->
      for _ = 1 to free do
        park spare
      done;
      (try
         while true do
           park rest
         done
       with Failure _ -> ());
      release spare;
      (match Serve.run ~handle_signals:false srv with
      | () -> Alcotest.fail "run served with too few domains"
      | exception Failure _ -> ());
      (match Serve.Client.connect ~port:(Serve.port srv) () with
      | c ->
          Serve.Client.close c;
          Alcotest.fail "socket still accepting after a failed run"
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
      match
        for _ = 1 to free do
          park probe
        done
      with
      | () -> ()
      | exception Failure _ ->
          Alcotest.failf "fewer than %d domain slots free after the failed run" free);
  Sys.remove ckpt

(* Strict framing: HTTP writes Content-Length as 1*DIGIT. Each form
   below is one that [int_of_string] accepts, spelled so that it names
   the true body length — a lenient parser would read the body and
   answer 200, so only a strict one fails these. *)
let lenient_forms = function
  | 10 -> [ "+10"; "0xa"; "0b1010"; "1_0"; "0o12" ]
  | 14 -> [ "+14"; "0xe"; "0b1110"; "1_4"; "0o16" ]
  | n -> Alcotest.failf "no lenient spellings of %d" n

let huge_length = "99999999999999999999999999"

(* One raw request on a fresh socket; returns everything the server
   sends before closing. A receive timeout turns a server waiting for
   a body into a test failure instead of a hang. *)
let raw_exchange ~port request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string request in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Buffer.create 256 and chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read fd chunk 0 1024 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "server did not answer within 5 s (waiting for a body?)"
      in
      drain ();
      Buffer.contents buf)

let status_of response =
  match String.split_on_char ' ' response with
  | _ :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "no status line in %S" response

let test_strict_content_length_server () =
  let ckpt = fresh_ckpt () in
  save_model ckpt (make_model 50);
  let config = { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = env_pool_size } in
  with_server ~config ckpt (fun srv ->
      let port = Serve.port srv in
      let post length body =
        Printf.sprintf "POST /v1/logits HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s"
          length body
      in
      let body = {|{"series":[1]}|} in
      Alcotest.(check int) "digits accepted" 200
        (status_of (raw_exchange ~port (post (string_of_int (String.length body)) body)));
      List.iter
        (fun form ->
          Alcotest.(check int) ("Content-Length: " ^ form) 400
            (status_of (raw_exchange ~port (post form body))))
        (lenient_forms (String.length body));
      (* Overflowing length: rejected from the header alone, no body. *)
      Alcotest.(check int) "huge Content-Length" 400
        (status_of (raw_exchange ~port (post huge_length ""))));
  Sys.remove ckpt

(* The Connection header is a comma-separated list of case-insensitive
   options (RFC 9110 §7.6.1), so "Close" and "keep-alive, close" each
   get one reply saying Connection: close, then EOF ([raw_exchange]
   returns only once the server hangs up). An option that merely
   contains "close" keeps the connection: of two pipelined requests,
   the first is answered keep-alive and the second closes. *)
let test_connection_close_options () =
  let ckpt = fresh_ckpt () in
  save_model ckpt (make_model 56);
  let config = { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = env_pool_size } in
  with_server ~config ckpt (fun srv ->
      let port = Serve.port srv in
      let body = {|{"series":[1]}|} in
      let post connection =
        Printf.sprintf "POST /v1/logits HTTP/1.1\r\nHost: x\r\nConnection: %s\r\nContent-Length: %d\r\n\r\n%s"
          connection (String.length body) body
      in
      List.iter
        (fun connection ->
          let response = raw_exchange ~port (post connection) in
          Alcotest.(check int) (connection ^ ": status") 200 (status_of response);
          Alcotest.(check int) (connection ^ ": responses") 1 (count_sub response "HTTP/1.1 ");
          Alcotest.(check int) (connection ^ ": Connection: close") 1
            (count_sub response "Connection: close"))
        [ "Close"; "keep-alive, close"; "CLOSE"; "close ,keep-alive"; "Keep-Alive,\tClose" ];
      let response = raw_exchange ~port (post "closed, x-close" ^ post "close") in
      Alcotest.(check int) "pipelined: responses" 2 (count_sub response "HTTP/1.1 200");
      Alcotest.(check int) "pipelined: first kept alive" 1
        (count_sub response "Connection: keep-alive");
      Alcotest.(check int) "pipelined: second closes" 1 (count_sub response "Connection: close"));
  Sys.remove ckpt

(* Bodies are framed by Content-Length only. A chunked request used to
   be read as an empty body (400, keep-alive) and its chunk bytes then
   parsed as a second request; lengths that disagree left the body's
   extent to header order. Each now gets exactly one 400 and the
   connection closes — [raw_exchange] returns only once the server
   hangs up. Identical repeated lengths are one length. *)
let test_transfer_encoding_and_conflicting_lengths () =
  let ckpt = fresh_ckpt () in
  save_model ckpt (make_model 55);
  let config = { Serve.default_config with max_batch = 1; reload_every_s = 0.; pool_size = env_pool_size } in
  with_server ~config ckpt (fun srv ->
      let port = Serve.port srv in
      let body = {|{"series":[1]}|} in
      let one_400_then_close what request =
        let response = raw_exchange ~port request in
        Alcotest.(check int) (what ^ ": status") 400 (status_of response);
        Alcotest.(check int) (what ^ ": responses") 1 (count_sub response "HTTP/1.1 ");
        Alcotest.(check bool) (what ^ ": Connection: close") true
          (count_sub response "Connection: close" = 1)
      in
      one_400_then_close "chunked"
        (Printf.sprintf
           "POST /v1/logits HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
           (String.length body) body);
      one_400_then_close "Transfer-Encoding with Content-Length"
        (Printf.sprintf
           "POST /v1/logits HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nTransfer-Encoding: identity\r\n\r\n%s"
           (String.length body) body);
      one_400_then_close "conflicting Content-Length"
        (Printf.sprintf
           "POST /v1/logits HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nContent-Length: %d\r\n\r\n%s"
           (String.length body) (String.length body + 1) body);
      Alcotest.(check int) "repeated equal Content-Length" 200
        (status_of
           (raw_exchange ~port
              (Printf.sprintf
                 "POST /v1/logits HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: %d\r\nContent-Length: %d\r\n\r\n%s"
                 (String.length body) (String.length body) body))));
  Sys.remove ckpt

(* A one-shot fake server: answers the first request on a loopback
   port with [response] verbatim, then closes. *)
let with_canned_server response f =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port = match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let serve () =
    let fd, _ = Unix.accept lfd in
    let buf = Bytes.create 4096 in
    ignore (Unix.read fd buf 0 4096);
    let b = Bytes.of_string response in
    ignore (Unix.write fd b 0 (Bytes.length b));
    Unix.close fd
  in
  let th = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join th;
      Unix.close lfd)
    (fun () -> f port)

let client_outcome response =
  with_canned_server response (fun port ->
      let c = Serve.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.request c ~meth:"GET" ~path:"/healthz" () with
          | r -> Ok r.Serve.Client.status
          | exception Failure msg -> Error msg))

let test_strict_content_length_client () =
  let reply ?(status = "200") length =
    Printf.sprintf "HTTP/1.1 %s OK\r\nContent-Length: %s\r\n\r\n0123456789" status length
  in
  Alcotest.(check (result int string)) "digits accepted" (Ok 200) (client_outcome (reply "10"));
  let rejects what response =
    match client_outcome response with
    | Error _ -> ()
    | Ok st -> Alcotest.failf "%s: client accepted the response (status %d)" what st
  in
  List.iter (fun form -> rejects ("Content-Length: " ^ form) (reply form)) (lenient_forms 10);
  rejects "huge Content-Length" (reply huge_length);
  List.iter
    (fun status -> rejects ("status " ^ status) (reply ~status "10"))
    [ "+200"; "0xc8"; "2_00"; "20"; "2000" ]

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "parity",
        [
          Alcotest.test_case "per-request flush (max_batch=1)" `Quick test_parity_per_request;
          Alcotest.test_case "coalesced flush, concurrent clients" `Quick
            test_parity_coalesced_flush;
          Alcotest.test_case "lone request, idle daemon: one flush" `Quick
            test_lone_request_idle_daemon;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "request over max_batch flushes at once" `Quick
            test_oversized_request_flushes_at_once;
          Alcotest.test_case "one lane, 16 clients: blocks coalesce" `Quick
            test_one_lane_coalesces;
          Alcotest.test_case "at most one group after a lane's own" `Quick
            test_one_group_after_own;
          Alcotest.test_case "stop with a backlog answers every admitted request" `Quick
            test_stop_with_backlog;
          Alcotest.test_case "overlapping lanes, 64 connections" `Quick test_overlapping_lanes;
        ] );
      ( "receive path",
        [
          Alcotest.test_case "slice decode = decode of the copy" `Quick test_slice_decode;
          Alcotest.test_case "slice ends in a number" `Quick test_slice_ends_in_number;
          Alcotest.test_case "split, pipelined stream" `Quick test_split_stream;
          Alcotest.test_case "in-place head parser = reference" `Quick test_head_parser_vs_reference;
          Alcotest.test_case "head parse and response head allocate nothing" `Quick test_head_alloc;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "malformed bodies survive" `Quick test_malformed_bodies;
          Alcotest.test_case "decoder = parse + shape rules" `Quick test_decoder_vs_oracle;
          Alcotest.test_case "decoder allocation per body" `Quick test_decoder_alloc_per_body;
          Alcotest.test_case "daemon words per request" `Quick test_words_per_request;
          Alcotest.test_case "deep nesting body: 400, bounded memory" `Quick test_deep_nesting_body;
          Alcotest.test_case "hot reload mid-load" `Quick (test_hot_reload_mid_load 4);
          Alcotest.test_case "hot reload mid-load, 64 connections" `Quick
            (test_hot_reload_mid_load 64);
          Alcotest.test_case "kill and restart" `Quick test_kill_and_restart;
          Alcotest.test_case "concurrent drain" `Quick test_concurrent_drain;
          Alcotest.test_case "handler churn leaves none live" `Quick test_handler_churn;
        ] );
      ( "domains",
        [
          Alcotest.test_case "flushes spread over domains" `Quick test_flushes_spread_over_domains;
          Alcotest.test_case "handler domains run a 32k-word minor heap" `Quick
            test_handler_domain_minor_heap;
          Alcotest.test_case "systhreads of one domain, mixed shapes" `Quick
            test_systhreads_mixed_shapes;
          Alcotest.test_case "no domain leaks over 50 runs" `Quick test_no_domain_leak;
          Alcotest.test_case "pool_size over the domain limit rejected" `Quick
            test_pool_size_over_limit_rejected;
          Alcotest.test_case "failed handler domain spawn cleans up" `Quick
            test_spawn_failure_cleans_up;
        ] );
      ( "framing",
        [
          Alcotest.test_case "server: strict Content-Length" `Quick
            test_strict_content_length_server;
          Alcotest.test_case "server: Transfer-Encoding and conflicting lengths" `Quick
            test_transfer_encoding_and_conflicting_lengths;
          Alcotest.test_case "client: strict Content-Length and status" `Quick
            test_strict_content_length_client;
          Alcotest.test_case "server: Connection options" `Quick test_connection_close_options;
        ] );
    ]

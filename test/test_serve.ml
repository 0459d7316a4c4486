(* Differential tests for the model-serving daemon.

   The load-bearing property is the parity contract from
   lib/serve/serve.mli: logits served over the wire are bit-identical
   (eps 0) to an offline [Model.logits_batch_t] call on the same
   checkpoint, whatever flush mode produced the micro-batch. Each
   parity test below pins one flush trigger — per-request batches
   (max_batch = 1), the size threshold under concurrent load, and the
   deadline under a single in-flight request — plus hot reload,
   malformed-body survival, kill-and-restart and a drain check. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Model = Pnc_core.Model
module Network = Pnc_core.Network
module Persist = Pnc_core.Persist
module Serve = Pnc_serve.Serve

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

(* Flush mode 1: max_batch = 1, so every request is its own batch. *)
let test_parity_per_request () =
  let ckpt = fresh_ckpt () in
  let model = make_model 42 in
  save_model ckpt model;
  let config = { Serve.default_config with max_batch = 1; max_delay_s = 1.0; reload_every_s = 0. } in
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

(* Flush mode 2: the size threshold. Eight single-row requests from
   eight concurrent connections against max_batch = 4 coalesce into
   cross-request micro-batches; every answer must still be the row the
   offline engine computes for that client's input. max_delay_s is the
   safety valve so the test cannot wedge if the scheduler staggers the
   admissions. *)
let test_parity_threshold_flush () =
  let ckpt = fresh_ckpt () in
  let model = make_model 43 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 4; max_delay_s = 0.25; reload_every_s = 0.; pool_size = 2 }
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

(* Flush mode 3: the deadline. With max_batch far above what one
   request supplies, only the max_delay_s timer can flush — the request
   must still be answered promptly and bit-identically. *)
let test_parity_deadline_flush () =
  let ckpt = fresh_ckpt () in
  let model = make_model 44 in
  save_model ckpt model;
  let config =
    { Serve.default_config with max_batch = 1024; max_delay_s = 0.005; reload_every_s = 0. }
  in
  with_server ~config ckpt (fun srv ->
      with_conn srv (fun c ->
          let rng = Rng.create ~seed:13 in
          for i = 1 to 5 do
            let row = random_row rng in
            let t0 = Unix.gettimeofday () in
            let _, got = ok "logits" (Serve.Client.logits c row) in
            let dt = Unix.gettimeofday () -. t0 in
            check_bits (Printf.sprintf "deadline %d" i) (offline model [| row |]).(0) got;
            if dt > 2.0 then Alcotest.failf "deadline flush took %.3fs (timer not firing?)" dt
          done));
  Sys.remove ckpt

(* Malformed bodies must get a 4xx and leave the daemon (and, for
   body-level errors, even the connection) healthy. *)
let test_malformed_bodies () =
  let ckpt = fresh_ckpt () in
  let model = make_model 45 in
  save_model ckpt model;
  let config = { Serve.default_config with max_batch = 1; reload_every_s = 0. } in
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

(* Hot reload under load: requests racing a checkpoint swap must each
   match the offline logits of the model version they were answered
   with — never a torn or mixed result. *)
let test_hot_reload_mid_load () =
  let ckpt = fresh_ckpt () in
  let model_a = make_model 46 in
  let model_b = make_model 47 in
  save_model ckpt model_a;
  let config =
    { Serve.default_config with max_batch = 4; max_delay_s = 0.002; reload_every_s = 0.02 }
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
      let ths = Array.init 4 (fun wi -> Thread.create worker wi) in
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
  let config = { Serve.default_config with max_batch = 2; max_delay_s = 0.002; reload_every_s = 0. } in
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
    { Serve.default_config with max_batch = 8; max_delay_s = 0.002; reload_every_s = 0.; pool_size = 2 }
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
  let config = { Serve.default_config with max_batch = 1; reload_every_s = 0. } in
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
          Alcotest.test_case "threshold flush, concurrent clients" `Quick
            test_parity_threshold_flush;
          Alcotest.test_case "deadline flush" `Quick test_parity_deadline_flush;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "malformed bodies survive" `Quick test_malformed_bodies;
          Alcotest.test_case "hot reload mid-load" `Quick test_hot_reload_mid_load;
          Alcotest.test_case "kill and restart" `Quick test_kill_and_restart;
          Alcotest.test_case "concurrent drain" `Quick test_concurrent_drain;
        ] );
      ( "framing",
        [
          Alcotest.test_case "server: strict Content-Length" `Quick
            test_strict_content_length_server;
          Alcotest.test_case "client: strict Content-Length and status" `Quick
            test_strict_content_length_client;
        ] );
    ]

(* Workload [serve]: the [adapt_pnc serve] daemon in its own process
   (--max-batch 64, --reload-every-ms 0, default --jobs), driven in a
   closed loop from nproc keep-alive connections, one generator thread
   each. Every request is a pre-rendered {"batch":...} body of 32 rows of
   64-sample series, so two connections in flight reach the 64-row
   flush threshold. *)

open Common
module Client = Pnc_serve.Serve.Client
module Persist = Pnc_core.Persist

let rows_per_request = 32
let n_bodies = 16
let dataset_n = 1000

(* The daemon binary, built beside the benchmark by perfbench/run.sh. *)
let daemon_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/adapt_pnc.exe")

type daemon = { pid : int; port : int; out : string; stopped : bool ref }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let with_conn port f =
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Boot the daemon with stdout and stderr sent to files (a closed stdout
   pipe kills the daemon when it prints its drain line), wait for its
   port line, then for /healthz to answer. Should the benchmark die
   before [stop], an exit hook kills and reaps the daemon. *)
let boot ~ckpt ~tag =
  let out = Filename.concat run_dir (tag ^ ".out") in
  let err = Filename.concat run_dir (tag ^ ".err") in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_out = fd out and fd_err = fd err in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let exe = daemon_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--load"; ckpt; "--port"; "0"; "--max-batch"; "64"; "--reload-every-ms"; "0" |]
      fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let stopped = ref false in
  at_exit (fun () ->
      if not !stopped then
        try
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        with Unix.Unix_error _ -> ());
  let deadline = now () +. 60. in
  let rec wait_port () =
    let text = read_file out in
    match find_sub text "on http://127.0.0.1:" with
    | Some i -> Scanf.sscanf (String.sub text i (String.length text - i)) "on http://127.0.0.1:%d" Fun.id
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("serve daemon exited during boot: " ^ read_file err));
        if now () > deadline then failwith "serve daemon never printed its port";
        Unix.sleepf 0.005;
        wait_port ()
  in
  let port = wait_port () in
  let rec wait_health () =
    match with_conn port Client.health with
    | Ok _ -> ()
    | Error e -> failwith ("serve /healthz: " ^ e)
    | exception Unix.Unix_error _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait_health ()
  in
  wait_health ();
  { pid; port; out; stopped }

(* SIGTERM, then wait: a clean stop exits 0 after printing its drain
   line. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  d.stopped := true;
  status = Unix.WEXITED 0 && find_sub (read_file d.out) "drained and stopped" <> None

type inputs = {
  daemon : daemon;
  bodies : string array;
  rows : float array array array;  (** input rows per body *)
  expected : float array array array;  (** offline logits per body *)
  model : Model.t;  (** the checkpoint as the daemon loads it *)
}

let render_batch rows =
  Json.render
    (Json.Obj
       [
         ( "batch",
           Json.List
             (Array.to_list
                (Array.map (fun r -> Json.List (Array.to_list (Array.map (fun v -> Json.Num v) r))) rows))
         );
       ])

let setup ~seed =
  ensure_run_dir ();
  let ckpt = Filename.concat run_dir (Printf.sprintf "serve-%d.ckpt" seed) in
  Persist.save_model ~path:ckpt (deployed_model ~seed);
  let model = Persist.load_model_exn ~path:ckpt in
  let _, split = load_split ~seed ~n:dataset_n in
  let test = split.Dataset.test.Dataset.x in
  let perm = Rng.permutation (Rng.create ~seed:(seed + 6)) (Array.length test) in
  let rows =
    Array.init n_bodies (fun b ->
        Array.init rows_per_request (fun r ->
            test.(perm.(((b * rows_per_request) + r) mod Array.length test))))
  in
  let expected =
    Array.map
      (fun rs ->
        let l = Model.logits_batch_t model (T.of_rows rs) in
        Array.init (T.rows l) (T.row l))
      rows
  in
  let daemon = boot ~ckpt ~tag:(Printf.sprintf "serve-%d" seed) in
  (* Warm-up: one request per body. *)
  with_conn daemon.port (fun c -> Array.iter (fun rs -> ignore (Client.logits_batch c rs)) rows);
  { daemon; bodies = Array.map render_batch rows; rows; expected; model }

let reply_logits body =
  match Json.member "logits" (Json.parse body) with
  | Some (Json.List rows) ->
      Array.of_list
        (List.map
           (function
             | Json.List vs -> Array.of_list (List.map Json.to_float vs)
             | _ -> failwith "logits row")
           rows)
  | _ -> failwith "reply without logits"

(* One generator thread: closed loop on its own connection until
   [deadline]. A failed op is a transport error, a non-200 reply or a
   reply whose logits differ in any bit from the offline engine's.
   [lat] holds (completion time, latency) per answered request. *)
type lane = { mutable lat : (float * float) list; mutable ok : int; mutable bad : int }

let generator ?tr ~port ~deadline inp k =
  let lane = { lat = []; ok = 0; bad = 0 } in
  let conn = ref (Client.connect ~port ()) in
  let span name f =
    match tr with Some tr -> Trace.span tr name f | None -> f (-1)
  in
  let child parent name f =
    match tr with Some tr -> Trace.span tr ~parent name (fun _ -> f ()) | None -> f ()
  in
  let i = ref k in
  while now () < deadline do
    let b = !i mod n_bodies in
    i := !i + nproc;
    let t0 = now () in
    span "run.request" (fun parent ->
        match
          let r =
            child parent "serve.roundtrip" (fun () ->
                Client.request !conn ~meth:"POST" ~path:"/v1/logits" ~body:inp.bodies.(b) ())
          in
          if r.Client.status <> 200 then None
          else Some (child parent "serve.json_parse" (fun () -> reply_logits r.Client.body))
        with
        | Some logits ->
            let t1 = now () in
            lane.lat <- (t1, t1 -. t0) :: lane.lat;
            if Array.length logits = Array.length inp.expected.(b)
               && Array.for_all2 same_bits_array logits inp.expected.(b)
            then lane.ok <- lane.ok + 1
            else lane.bad <- lane.bad + 1
        | None -> lane.bad <- lane.bad + 1
        | exception (Unix.Unix_error _ | End_of_file | Failure _) ->
            lane.bad <- lane.bad + 1;
            Client.close !conn;
            conn := Client.connect ~port ())
  done;
  Client.close !conn;
  lane

(* ---- /metrics deltas ---------------------------------------------------- *)

let scrape port =
  with_conn port (fun c ->
      let r = Client.request c ~meth:"GET" ~path:"/metrics" () in
      Json.parse r.Client.body)

let field j metric key =
  match Json.member metric j with
  | Some m -> ( match Json.member key m with Some v -> Json.to_float v | None -> 0.)
  | None -> 0.

(* Bucket deltas of a log2 histogram, as (upper bound, count). *)
let bucket_delta before after metric =
  match Json.member metric after with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, _) ->
          if String.length k > 3 && String.sub k 0 3 = "le_" then
            let ub = float_of_string (String.sub k 3 (String.length k - 3)) in
            let d = field after metric k -. field before metric k in
            if d > 0. then Some (ub, d) else None
          else None)
        fields
      |> List.sort compare
  | _ -> []

(* Quantile of a log2 histogram: bucket (ub/2, ub], interpolated
   geometrically inside the bucket. *)
let bucket_quantile buckets q =
  let total = List.fold_left (fun a (_, c) -> a +. c) 0. buckets in
  let target = q *. total in
  let rec go cum = function
    | [] -> nan
    | (ub, c) :: rest ->
        if cum +. c >= target then ub /. 2. *. (2. ** ((target -. cum) /. c)) else go (cum +. c) rest
  in
  go 0. buckets

let layer_counters before after =
  let d metric key = field after metric key -. field before metric key in
  let qw = bucket_delta before after "serve.queue_wait_seconds" in
  let hl = bucket_delta before after "serve.latency_seconds" in
  [
    metric "serve.batches" "count" (d "serve.batches" "value");
    metric "serve.batch_fill_mean" "rows" (d "serve.batch_fill" "sum" /. d "serve.batch_fill" "count");
    metric "serve.queue_wait_p50_ms" "ms" (1000. *. bucket_quantile qw 0.5);
    metric "serve.queue_wait_p99_ms" "ms" (1000. *. bucket_quantile qw 0.99);
    metric "serve.handler_p50_ms" "ms" (1000. *. bucket_quantile hl 0.5);
  ]

(* ---- runs --------------------------------------------------------------- *)

(* What one measured window gives: op counts, every request latency,
   and for each 0.5 s slice of the window its rows/s rate and median
   latency (the samples behind the fast-decile figures). *)
type window = {
  ok : int;
  bad : int;
  lat_ms : float list;
  slice_rates : float list;
  slice_p50s : float list;
  rows_per_s : float;
}

let slice_s = 0.5

(* Closed loop from nproc connections for [seconds]. A generator thread
   that dies counts as one failed op. *)
let drive ?tr ~seconds inp =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let threads =
    List.init nproc (fun k ->
        let lane = ref None in
        let run () = lane := Some (generator ?tr ~port:inp.daemon.port ~deadline inp k) in
        (Thread.create run (), lane))
  in
  List.iter (fun (th, _) -> Thread.join th) threads;
  let wall = now () -. t0 in
  let lanes = List.filter_map (fun (_, l) -> !l) threads in
  let lat = List.concat_map (fun l -> l.lat) lanes in
  let n_slices = max 1 (truncate (wall /. slice_s)) in
  let slices = Array.make n_slices [] in
  List.iter
    (fun (t1, l) ->
      let k = truncate ((t1 -. t0) /. slice_s) in
      if k < n_slices then slices.(k) <- (1000. *. l) :: slices.(k))
    lat;
  let slices = List.filter (fun s -> s <> []) (Array.to_list slices) in
  let ok = List.fold_left (fun a (l : lane) -> a + l.ok) 0 lanes in
  {
    ok;
    bad = List.fold_left (fun a (l : lane) -> a + l.bad) 0 lanes + (nproc - List.length lanes);
    lat_ms = List.map (fun (_, l) -> 1000. *. l) lat;
    slice_rates = List.map (fun s -> float_of_int (rows_per_request * List.length s) /. slice_s) slices;
    slice_p50s = List.map median slices;
    rows_per_s = float_of_int (rows_per_request * ok) /. wall;
  }

let run ~seed ~seconds =
  let inp, setup_times =
    setup_reps ~reps:3 ~release:(fun i -> ignore (stop i.daemon)) (fun () -> setup ~seed)
  in
  let before = scrape inp.daemon.port in
  let w = drive ~seconds inp in
  let after = scrape inp.daemon.port in
  let rss = peak_rss_mb ~pid:(string_of_int inp.daemon.pid) () in
  let clean_stop = stop inp.daemon in
  {
    attempted = w.ok + w.bad;
    failed = w.bad;
    checks = [ ("serve: daemon drained and exited 0", clean_stop) ];
    metrics =
      [
        metric "setup_s" "s" (median setup_times);
        metric "peak_rss_mb" "MB" rss;
        metric "ops_per_s" "1/s" (fast_rate w.slice_rates);
        metric "op_ms" "ms" (fast_time w.slice_p50s);
      ];
    info =
      [
        ( "serve_rows_per_s",
          Printf.sprintf "%.4f 1/s (whole window %.4f)" (fast_rate w.slice_rates) w.rows_per_s );
        ("serve_p50_ms", Printf.sprintf "%.4f ms (%d samples)" (median w.lat_ms) (List.length w.lat_ms));
        tail_info "serve_p99_ms" "ms" w.lat_ms;
        ( "serve_shape",
          Printf.sprintf "%d connections, %d rows x %d steps per request, closed loop" nproc
            rows_per_request (Array.length inp.rows.(0).(0)) );
      ]
      @ List.map
          (fun m -> (m.name, Printf.sprintf "%.4f %s" m.value m.unit_))
          (layer_counters before after);
  }

let median_us reps f = 1e6 *. median (List.init reps (fun _ -> snd (timed f)))

let traced ~seed ~seconds =
  let inp = setup ~seed in
  let tr = Trace.create "serve" in
  let untraced = drive ~seconds:(seconds /. 3.) inp in
  let before = scrape inp.daemon.port in
  let t_start = now () in
  let traced = drive ~tr ~seconds:(2. *. seconds /. 3.) inp in
  let wall = now () -. t_start in
  let after = scrape inp.daemon.port in
  let clean_stop = stop inp.daemon in
  let response =
    Json.Obj
      [
        ("model_version", Json.Num 1.);
        ( "logits",
          Json.List
            (Array.to_list
               (Array.map
                  (fun r -> Json.List (Array.to_list (Array.map (fun v -> Json.Num v) r)))
                  inp.expected.(0))) );
      ]
  in
  let block = T.of_rows (Array.append inp.rows.(0) inp.rows.(1)) in
  let outcome =
    {
      attempted = untraced.ok + untraced.bad + traced.ok + traced.bad;
      failed = untraced.bad + traced.bad;
      checks = [ ("serve: daemon drained and exited 0", clean_stop) ];
      metrics =
        layer_counters before after
        @ [
            metric "serve.json_parse_us" "us" (median_us 200 (fun () -> Json.parse inp.bodies.(0)));
            metric "serve.json_render_us" "us" (median_us 200 (fun () -> Json.render response));
            metric "serve.compute_us" "us" (median_us 50 (fun () -> Model.logits_batch_t inp.model block));
          ]
        @ Trace.self_metrics ~prefix:"serve" ~layers:[ "serve" ] ~wall ~lanes:nproc tr
        @ [ overhead_metric "serve" ~untraced:(1. /. fast_rate untraced.slice_rates)
            ~traced:(1. /. fast_rate traced.slice_rates) ];
      info = [];
    }
  in
  (outcome, tr)

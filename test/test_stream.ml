(* Differential-test battery for the streaming subsystem (PR 9).

   Three claim families, all pinned at eps 0:

   - Scenario generation is a pure function of (seed, index): realize
     vs per-index regeneration, prefix invariance across stream
     lengths, and exact (seeded) event accounting for the dropout /
     burst / drift schedules.

   - The sliding-window evaluator is a deterministic re-chunking of
     the offline batched path: with adaptation off, stride = width and
     `V0 states, the streaming overall accuracy equals offline
     Train.accuracy on the same realizations bit-for-bit, results are
     invariant to POOL_SIZE (the dune rules re-run this binary under
     POOL_SIZE=1/4), and an adaptation-off pass never
     mutates a single parameter byte (checkpoint-image comparison).

   - Online adaptation actually helps: on an injected label-rotation
     drift the frozen model craters and the detector fires within a
     bounded latency, while the test-then-train pass beats the frozen
     baseline on post-drift and overall accuracy — on the same
     realizations and the same physical instance.

   The battery's own sensitivity is verified at the end: a locally
   reimplemented window slicer with a classic off-by-one (ragged final
   window dropped) must diverge from Window.slice — if these
   comparisons could not see that bug, the parity checks above would
   mean nothing. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Variation = Pnc_core.Variation
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Persist = Pnc_core.Persist
module Ckpt = Pnc_ckpt.Ckpt
module Dataset = Pnc_data.Dataset
module Scenario = Pnc_stream.Scenario
module Window = Pnc_stream.Window
module Online = Pnc_stream.Online
module Config = Pnc_exp.Config
module E = Pnc_exp.Experiments

let env_pool_size =
  match Sys.getenv_opt "POOL_SIZE" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 4)
  | None -> 4

let check_f = Alcotest.(check (float 0.))
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* Scenario helpers ------------------------------------------------------- *)

let perturbed =
  {
    Scenario.burst_rate = 0.2;
    burst_sigma = 0.5;
    dropout_rate = 0.05;
    wander_amp = 0.3;
    wander_period = 8.;
  }

let scenario ?drift ?(perturb = perturbed) ?(n = 32) ?(seed = 11) () =
  Scenario.make ~dataset:"GPOVY" ~n_samples:n ~seed ?drift ~perturb ()

let events_equal (a : Scenario.event) (b : Scenario.event) =
  a.Scenario.sample = b.Scenario.sample
  && a.Scenario.burst = b.Scenario.burst
  && a.Scenario.dropped = b.Scenario.dropped
  && a.Scenario.drifted = b.Scenario.drifted

(* Generation is a pure function of (seed, index) ------------------------- *)

(* realize and per-index regeneration agree bit-for-bit, for random
   knob settings including drift and every perturbation. *)
let test_replay_equality () =
  Qgen.check ~count:12 ~name:"realize = sample, per index"
    ~pp:(fun (n, seed, da) -> Printf.sprintf "n=%d seed=%d drift_at=%d" n seed da)
    (fun rng ->
      let n = 4 + Rng.int rng 12 in
      let seed = Rng.int rng 10_000 in
      let da = Rng.int rng n in
      (n, seed, da))
    (fun (n, seed, da) ->
      let s =
        scenario ~n ~seed
          ~drift:{ Scenario.drift_at = da; kind = Scenario.Gradual 4; shift = 1 }
          ()
      in
      let rz = Scenario.realize s in
      let ok = ref true in
      for i = 0 to n - 1 do
        let x, y, clean, ev = Scenario.sample s i in
        if
          x <> rz.Scenario.x.(i)
          || y <> rz.Scenario.y.(i)
          || clean <> rz.Scenario.clean_y.(i)
          || not (events_equal ev rz.Scenario.events.(i))
        then ok := false
      done;
      !ok)

(* Sample [i] does not depend on the stream length: a short stream is a
   bit-exact prefix of a longer one with the same knobs. *)
let test_prefix_invariance () =
  Qgen.check ~count:12 ~name:"short stream = prefix of long stream"
    ~pp:(fun (n, extra, seed) -> Printf.sprintf "n=%d extra=%d seed=%d" n extra seed)
    (fun rng ->
      let n = 4 + Rng.int rng 10 in
      let extra = 1 + Rng.int rng 10 in
      let seed = Rng.int rng 10_000 in
      (n, extra, seed))
    (fun (n, extra, seed) ->
      let short = Scenario.realize (scenario ~n ~seed ()) in
      let long = Scenario.realize (scenario ~n:(n + extra) ~seed ()) in
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          short.Scenario.x.(i) <> long.Scenario.x.(i)
          || short.Scenario.y.(i) <> long.Scenario.y.(i)
          || not (events_equal short.Scenario.events.(i) long.Scenario.events.(i))
        then ok := false
      done;
      !ok)

(* Event accounting ------------------------------------------------------- *)

(* Rate 0 produces no events; rate 1 produces the maximum: a burst in
   every sample, every time step held by dropout. *)
let test_rate_extremes () =
  let off = Scenario.realize (scenario ~perturb:Scenario.no_perturb ()) in
  Array.iter
    (fun (e : Scenario.event) ->
      check_b "no bursts at rate 0" true (e.Scenario.burst = None);
      check_b "no dropouts at rate 0" true (e.Scenario.dropped = []);
      check_b "no drift without drift" false e.Scenario.drifted)
    off.Scenario.events;
  let all =
    Scenario.realize
      (scenario ~perturb:{ perturbed with Scenario.burst_rate = 1.; dropout_rate = 1. } ())
  in
  let len = (all.Scenario.scenario).Scenario.length in
  Array.iter
    (fun (e : Scenario.event) ->
      check_b "burst in every sample at rate 1" true (e.Scenario.burst <> None);
      check_i "every step dropped at rate 1" len (List.length e.Scenario.dropped))
    all.Scenario.events

(* Moderate rates: the realized schedule is deterministic for the seed
   (counted exactly against an independent per-index regeneration) and
   the empirical frequencies honor the configured rates. *)
let test_rates_honored () =
  let n = 64 in
  let s = scenario ~n ~perturb:{ perturbed with Scenario.dropout_rate = 0.2 } () in
  let rz = Scenario.realize s in
  let len = s.Scenario.length in
  let drops rz =
    Array.fold_left (fun a e -> a + List.length e.Scenario.dropped) 0 rz.Scenario.events
  in
  let bursts rz =
    Array.fold_left (fun a e -> a + if e.Scenario.burst = None then 0 else 1) 0
      rz.Scenario.events
  in
  (* Exact seeded counts: a second realization and a per-index
     regeneration both reproduce them to the event. *)
  let rz2 = Scenario.realize s in
  check_i "dropout count is seeded" (drops rz) (drops rz2);
  check_i "burst count is seeded" (bursts rz) (bursts rz2);
  let indexed =
    Array.init n (fun i ->
        let _, _, _, ev = Scenario.sample s i in
        ev)
  in
  check_i "dropout count matches per-index schedule"
    (drops rz)
    (Array.fold_left (fun a e -> a + List.length e.Scenario.dropped) 0 indexed);
  (* Empirical frequencies: 64 x 64 dropout coins at p = 0.2 and 64
     burst coins at p = 0.2 land well inside these loose bands. *)
  let drop_rate = float_of_int (drops rz) /. float_of_int (n * len) in
  let burst_rate = float_of_int (bursts rz) /. float_of_int n in
  check_b "dropout rate near 0.2" true (drop_rate > 0.12 && drop_rate < 0.28);
  check_b "burst rate near 0.2" true (burst_rate > 0.05 && burst_rate < 0.40);
  (* Structural consistency of the recorded schedules. *)
  Array.iter
    (fun (e : Scenario.event) ->
      (match e.Scenario.burst with
      | Some (start, blen) ->
          check_b "burst inside the series" true
            (start >= 0 && blen >= 1 && start + blen <= len)
      | None -> ());
      check_b "dropout steps ascending and in range" true
        (List.for_all (fun t -> t >= 0 && t < len) e.Scenario.dropped
        && List.sort_uniq compare e.Scenario.dropped = e.Scenario.dropped))
    rz.Scenario.events

(* Abrupt drift relabels exactly the tail, by exactly the shift. *)
let test_abrupt_drift_labels () =
  let da = 10 in
  let s = scenario ~n:24 ~drift:{ Scenario.drift_at = da; kind = Scenario.Abrupt; shift = 1 } () in
  let rz = Scenario.realize s in
  check_i "first drifted sample" da
    (match Scenario.first_drift rz with Some i -> i | None -> -1);
  Array.iteri
    (fun i (e : Scenario.event) ->
      check_b "drifted iff past the change point" (i >= da) e.Scenario.drifted;
      let expect =
        if i >= da then (rz.Scenario.clean_y.(i) + 1) mod rz.Scenario.n_classes
        else rz.Scenario.clean_y.(i)
      in
      check_i "label rotation" expect rz.Scenario.y.(i))
    rz.Scenario.events

(* Window slicing --------------------------------------------------------- *)

(* stride = width: exhaustive, non-overlapping, exactly reconstructs
   [0, n). *)
let test_window_partition () =
  Qgen.check ~count:60 ~name:"stride = width partitions the stream"
    ~pp:(fun (n, w) -> Printf.sprintf "n=%d width=%d" n w)
    (fun rng ->
      let n = 1 + Rng.int rng 200 in
      let w = 1 + Rng.int rng (n + 4) in
      (n, w))
    (fun (n, w) ->
      let ws = Window.slice ~n ~width:w ~stride:w in
      let covered =
        List.concat_map
          (fun win -> List.init win.Window.len (fun j -> win.Window.start + j))
          ws
      in
      covered = List.init n Fun.id
      && List.for_all (fun win -> win.Window.len = min w (n - win.Window.start)) ws)

(* stride < width: starts advance by exactly the stride, every window
   is as wide as the data allows, and every index is covered (possibly
   more than once). *)
let test_window_overlap () =
  Qgen.check ~count:60 ~name:"stride < width overlaps and covers"
    ~pp:(fun (n, w, s) -> Printf.sprintf "n=%d width=%d stride=%d" n w s)
    (fun rng ->
      let n = 2 + Rng.int rng 200 in
      let w = 2 + Rng.int rng 20 in
      let s = 1 + Rng.int rng (w - 1) in
      (n, w, s))
    (fun (n, w, s) ->
      let ws = Window.slice ~n ~width:w ~stride:s in
      let starts = List.map (fun win -> win.Window.start) ws in
      let covered = Array.make n false in
      List.iter
        (fun win ->
          for j = win.Window.start to win.Window.start + win.Window.len - 1 do
            covered.(j) <- true
          done)
        ws;
      starts = List.init (List.length ws) (fun i -> i * s)
      && Array.for_all Fun.id covered
      && List.for_all (fun win -> win.Window.len = min w (n - win.Window.start)) ws)

(* Trained model shared by the evaluator tests ---------------------------- *)

let smoke_cfg = Config.of_scale Config.Smoke

let trained =
  lazy (E.train_run smoke_cfg ~dataset:"GPOVY" ~variant:E.Full ~seed:0)

let spec = Variation.uniform smoke_cfg.Config.eval_level

(* The whole parameter state as one deterministic checkpoint image:
   byte equality here is bit equality of every trainable tensor. *)
let param_image model =
  Ckpt.encode ~kind:"params" ~meta:(Persist.model_meta model)
    ~sections:(Persist.param_sections model)

let eval_seed = 6011

let eval ?pool ?(protocol = Online.default_protocol) ?(with_spec = true) model rz =
  Online.eval ?pool
    ?spec:(if with_spec then Some spec else None)
    ~rng:(Rng.create ~seed:eval_seed) protocol model rz

(* Streaming = offline, at eps 0 ------------------------------------------ *)

(* With adaptation off, stride = width and `V0 states, windowed
   streaming is a re-chunking of the offline batched path: overall
   accuracy equals Train.accuracy on the same realizations, clean and
   under variation (one replayed physical instance, built offline from
   a copy of the evaluator's own instance stream, as online.mli
   documents). *)
let test_offline_parity () =
  let r = Lazy.force trained in
  let rz = Scenario.realize (scenario ()) in
  let ds = Scenario.to_dataset rz in
  (* width 12 over 32 samples: the ragged final window (8 samples) is
     part of the parity claim — a slicer that drops or shortens the
     tail shifts the overall accuracy and fails the eps-0 check. *)
  let protocol = { Online.default_protocol with Online.width = 12; stride = 12 } in
  let offline_draw () =
    (* Child 0 of the evaluator's root rng carries the physical
       instance; replaying a copy of it is the documented offline
       comparator. *)
    let top = Rng.split_n (Rng.create ~seed:eval_seed) 2 in
    Variation.make_draw (Rng.copy top.(0)) spec
  in
  let streamed = eval ~protocol r.E.model rz in
  check_f "streamed = offline accuracy under variation"
    (Train.accuracy ~draw:(offline_draw ()) r.E.model ds)
    streamed.Online.overall_acc;
  let clean = eval ~protocol ~with_spec:false r.E.model rz in
  check_f "streamed = offline accuracy, clean" (Train.accuracy r.E.model ds)
    clean.Online.overall_acc;
  (* Weighted window accuracies recompose to the overall number. *)
  let correct = Array.fold_left (fun a p -> a + p.Online.correct) 0 streamed.Online.points in
  check_f "points recompose the overall accuracy"
    (float_of_int correct /. float_of_int (Array.length rz.Scenario.x))
    streamed.Online.overall_acc

(* Results are invariant to the pool size, for both `V0 and
   `Randomized window states (the dune rules re-run this under
   POOL_SIZE=1/4). *)
let test_pool_invariance () =
  let r = Lazy.force trained in
  let rz = Scenario.realize (scenario ()) in
  List.iter
    (fun state_init ->
      let protocol = { Online.default_protocol with Online.state_init; stride = 8 } in
      let reference = eval ~protocol r.E.model rz in
      let pooled =
        Pool.with_pool ~size:env_pool_size (fun pool -> eval ~pool ~protocol r.E.model rz)
      in
      check_b "pooled points identical" true
        (pooled.Online.points = reference.Online.points))
    [ `V0; `Randomized 0.1 ]

(* An adaptation-off evaluation never touches a parameter: the full
   checkpoint image is byte-identical before and after, pool or not. *)
let test_frozen_never_mutates () =
  let r = Lazy.force trained in
  let rz = Scenario.realize (scenario ()) in
  let before = param_image r.E.model in
  ignore (eval r.E.model rz);
  ignore
    (Pool.with_pool ~size:env_pool_size (fun pool -> eval ~pool r.E.model rz));
  check_b "adaptation-off leaves every parameter byte" true
    (String.equal before (param_image r.E.model))

(* One realization per frozen stream ----------------------------------------- *)

let realizations () =
  match List.assoc_opt "eval.realizations" (Pnc_obs.Obs.metrics_snapshot ()) with
  | Some fields -> (
      match List.assoc_opt "value" fields with Some (Pnc_obs.Obs.Int n) -> n | _ -> -1)
  | None -> -1

(* [f ()] and the instances it realized. *)
let counting_realizations f =
  let n0 = realizations () in
  let v = f () in
  (v, realizations () - n0)

(* Each window's correct count as a per-window realizing evaluation
   finds it: the window's own draw from a copy of the instance stream,
   its own pre-split state stream. *)
let per_window_correct ~protocol model (rz : Scenario.realized) =
  let x = T.of_rows rz.Scenario.x in
  let windows =
    Array.of_list
      (Window.slice ~n:(Array.length rz.Scenario.x) ~width:protocol.Online.width
         ~stride:protocol.Online.stride)
  in
  let top = Rng.split_n (Rng.create ~seed:eval_seed) 2 in
  let state_rngs = Rng.split_n top.(1) (Array.length windows) in
  Array.mapi
    (fun w (win : Window.t) ->
      let state_init =
        match protocol.Online.state_init with
        | `V0 -> `V0
        | `Zero -> `Zero
        | `Randomized sigma -> `Gaussian (state_rngs.(w), sigma)
      in
      let pred =
        Model.predict_batch
          ~opts:{ Pnc_core.Batch.default with state_init }
          ~draw:(Variation.make_draw (Rng.copy top.(0)) spec)
          model
          (T.rows_view x ~row:win.Window.start ~len:win.Window.len)
      in
      let correct = ref 0 in
      Array.iteri (fun j p -> if p = rz.Scenario.y.(win.Window.start + j) then incr correct) pred;
      !correct)
    windows

(* A frozen stream realizes its one physical instance once, sequential
   and pooled, and every window's count is the one a per-window
   realization gives, for `V0 and `Randomized states over overlapping
   windows. An adapted stream realizes once per window, under the
   parameters the previous window's steps left. *)
let test_one_realization_per_frozen_stream () =
  let r = Lazy.force trained in
  let rz = Scenario.realize (scenario ()) in
  List.iter
    (fun state_init ->
      let protocol = { Online.default_protocol with Online.width = 8; stride = 6; state_init } in
      let expect = per_window_correct ~protocol r.E.model rz in
      let nw = Array.length expect in
      let seq, n_seq = counting_realizations (fun () -> eval ~protocol r.E.model rz) in
      let pooled, n_pooled =
        counting_realizations (fun () ->
            Pool.with_pool ~size:env_pool_size (fun pool -> eval ~pool ~protocol r.E.model rz))
      in
      check_i "frozen, sequential: realizations" 1 n_seq;
      check_i "frozen, pooled: realizations" 1 n_pooled;
      List.iter
        (fun (what, (res : Online.result)) ->
          check_i (what ^ ": windows") nw (Array.length res.Online.points);
          Array.iteri
            (fun w (p : Online.point) ->
              check_i (Printf.sprintf "%s: window %d correct" what w) expect.(w) p.Online.correct)
            res.Online.points)
        [ ("sequential", seq); ("pooled", pooled) ];
      let snap = Online.snapshot_params r.E.model in
      let adapted, n_adapted =
        counting_realizations (fun () ->
            eval ~protocol:{ protocol with Online.adapt = Online.Filters; adapt_steps = 1 }
              r.E.model rz)
      in
      Online.restore_params r.E.model snap;
      check_i "adapted: realizations" nw n_adapted;
      check_i "adapted: first window as frozen" expect.(0) adapted.Online.points.(0).Online.correct)
    [ `V0; `Randomized 0.1 ]

(* Drift response --------------------------------------------------------- *)

let drift_scenario =
  scenario ~n:96
    ~drift:{ Scenario.drift_at = 32; kind = Scenario.Abrupt; shift = 1 }
    ()

let drift_protocol = { Online.default_protocol with Online.width = 8; stride = 8 }

(* The frozen model craters at the change point and the detector fires
   within one window of it. *)
let test_drift_detected () =
  let r = Lazy.force trained in
  let rz = Scenario.realize drift_scenario in
  let res = eval ~protocol:drift_protocol r.E.model rz in
  check_i "drift lands in window 4" 4
    (match res.Online.first_drift_window with Some w -> w | None -> -1);
  (match (res.Online.pre_drift_acc, res.Online.post_drift_acc) with
  | Some pre, Some post -> check_b "accuracy craters after the drift" true (post < pre -. 0.2)
  | _ -> Alcotest.fail "pre/post drift accuracies missing");
  (match res.Online.detected_at with
  | Some d -> check_b "detector fires at or after the drift window" true (d >= 4)
  | None -> Alcotest.fail "drift not detected");
  match res.Online.detect_latency with
  | Some l -> check_b "detection latency bounded (<= 1 window)" true (l <= 1)
  | None -> Alcotest.fail "no detection latency"

(* Test-time adaptation beats the frozen baseline after the drift, on
   the same realizations and the same physical instance — and
   Experiments.stream_run restores the trained weights afterwards. *)
let test_adaptation_beats_frozen () =
  let r = Lazy.force trained in
  let before = param_image r.E.model in
  let protocol =
    {
      drift_protocol with
      Online.adapt = Online.All;
      adapt_lr = 0.2;
      adapt_steps = 4;
    }
  in
  let sr = E.stream_run smoke_cfg ~scenario:drift_scenario ~protocol r in
  let adapted = match sr.E.sr_adapted with Some a -> a | None -> Alcotest.fail "no adapted pass" in
  let frozen = sr.E.sr_frozen in
  check_b "adapted beats frozen overall" true
    (adapted.Online.overall_acc > frozen.Online.overall_acc);
  (match (adapted.Online.post_drift_acc, frozen.Online.post_drift_acc) with
  | Some a, Some f -> check_b "adapted beats frozen post-drift" true (a > f)
  | _ -> Alcotest.fail "post-drift accuracies missing");
  check_b "stream_run restores the trained weights" true
    (String.equal before (param_image r.E.model))

(* Each adaptation step runs on the training objective's dispatch
   ([Mc_loss.objective], the fused node for a circuit): the parameters
   left by [Online.eval] equal, bit for bit, a replay of the same
   windows, replayed physical instance and AdamW steps on the per-op
   tape ([Model.logits] + [Loss.softmax_cross_entropy]). *)
let per_op_adapt ~protocol ~params model (rz : Scenario.realized) =
  let x_all = T.of_rows rz.Scenario.x in
  let instance = (Rng.split_n (Rng.create ~seed:eval_seed) 2).(0) in
  let opt = Pnc_optim.Optimizer.adamw ~params () in
  List.iter
    (fun (win : Window.t) ->
      let xw = T.rows_view x_all ~row:win.Window.start ~len:win.Window.len in
      let labels = Array.sub rz.Scenario.y win.Window.start win.Window.len in
      for _ = 1 to protocol.Online.adapt_steps do
        Pnc_optim.Optimizer.zero_grads opt;
        let draw = Variation.make_draw (Rng.copy instance) spec in
        let logits = Model.logits ~draw model xw in
        Pnc_autodiff.Var.backward (Pnc_autodiff.Loss.softmax_cross_entropy ~logits ~labels);
        Pnc_optim.Optimizer.clip_grad_norm opt ~max_norm:5.;
        Pnc_optim.Optimizer.step opt ~lr:protocol.Online.adapt_lr;
        Model.clamp model
      done)
    (Window.slice ~n:(Array.length rz.Scenario.x) ~width:protocol.Online.width
       ~stride:protocol.Online.stride)

let test_adaptation_equals_per_op_replay () =
  let rz = Scenario.realize drift_scenario in
  let circuit = (Lazy.force trained).E.model in
  let reference =
    Model.Reference (Pnc_core.Elman.create ~hidden:4 (Rng.create ~seed:5) ~inputs:1 ~classes:2)
  in
  let filters =
    match circuit with
    | Model.Circuit net ->
        List.concat_map
          (fun (_, fl, _) -> Pnc_core.Filter_layer.params fl)
          (Pnc_core.Network.layers net)
    | Model.Reference _ -> assert false
  in
  List.iter
    (fun (name, model, adapt, params) ->
      let protocol = { drift_protocol with Online.adapt; adapt_lr = 0.2; adapt_steps = 2 } in
      let snap = Online.snapshot_params model and before = param_image model in
      ignore (eval ~protocol model rz);
      let adapted = param_image model in
      Online.restore_params model snap;
      per_op_adapt ~protocol ~params model rz;
      let replayed = param_image model in
      Online.restore_params model snap;
      check_b (name ^ ": adaptation moved the parameters") false (String.equal before adapted);
      check_b (name ^ ": adapted = per-op replay, every byte") true (String.equal adapted replayed))
    [
      ("circuit, all", circuit, Online.All, Model.params circuit);
      ("circuit, filters", circuit, Online.Filters, filters);
      ("reference, all", reference, Online.All, Model.params reference);
    ]

(* A [Filters] adaptation steps the filter leaves alone, and only they
   take gradients from the training node: the crossbar and ptanh leaves
   keep none. *)
let test_filters_adaptation_grads_only_filters () =
  let rz = Scenario.realize drift_scenario in
  let model = (Lazy.force trained).E.model in
  let layers =
    match model with
    | Model.Circuit net -> Pnc_core.Network.layers net
    | Model.Reference _ -> assert false
  in
  let filters = List.concat_map (fun (_, fl, _) -> Pnc_core.Filter_layer.params fl) layers in
  let others =
    List.concat_map
      (fun (cb, _, act) -> Pnc_core.Crossbar.params cb @ Pnc_core.Ptanh.params act)
      layers
  in
  List.iter Pnc_autodiff.Var.zero_grad (Model.params model);
  let snap = Online.snapshot_params model in
  let protocol =
    { drift_protocol with Online.adapt = Online.Filters; adapt_lr = 0.2; adapt_steps = 2 }
  in
  ignore (eval ~protocol model rz);
  Online.restore_params model snap;
  let has_grad p = Option.is_some (Pnc_autodiff.Var.grad_opt p) in
  check_b "the filter leaves took gradients" true (List.for_all has_grad filters);
  check_b "crossbar and ptanh leaves took none" false (List.exists has_grad others);
  List.iter Pnc_autodiff.Var.zero_grad filters

(* Fingerprints ----------------------------------------------------------- *)

let test_fingerprints () =
  let p = Online.default_protocol in
  check_b "adapt knob enters the protocol fingerprint" false
    (String.equal (Online.fingerprint p)
       (Online.fingerprint { p with Online.adapt = Online.All }));
  let s1 = scenario () and s2 = scenario ~seed:12 () in
  check_b "seed enters the scenario fingerprint" false
    (String.equal (Scenario.fingerprint s1) (Scenario.fingerprint s2))

(* Battery sensitivity ---------------------------------------------------- *)

(* A window slicer with the classic off-by-one — the ragged final
   window silently dropped — must diverge from Window.slice whenever
   the width does not divide the stream; an accuracy sum over its
   windows would skip the tail samples. If this comparison passed, the
   partition/coverage properties above would be meaningless. *)
let test_battery_catches_dropped_tail () =
  let buggy_slice ~n ~width ~stride =
    let rec go i start acc =
      (* BUG under test: stops as soon as a full window no longer fits,
         dropping the ragged tail. *)
      if start + width > n then List.rev acc
      else go (i + 1) (start + stride) ({ Window.index = i; start; len = width } :: acc)
    in
    go 0 0 []
  in
  Qgen.check ~count:40 ~name:"injected dropped-tail slicer diverges"
    ~pp:(fun (n, w) -> Printf.sprintf "n=%d width=%d" n w)
    (fun rng ->
      let w = 2 + Rng.int rng 10 in
      (* Force a ragged tail: n = k*w + r with 0 < r < w. *)
      let k = 1 + Rng.int rng 10 in
      let r = 1 + Rng.int rng (w - 1) in
      ((k * w) + r, w))
    (fun (n, w) ->
      let good = Window.slice ~n ~width:w ~stride:w in
      let bad = buggy_slice ~n ~width:w ~stride:w in
      let count ws = List.fold_left (fun a win -> a + win.Window.len) 0 ws in
      good <> bad && count bad < count good)

let () =
  Alcotest.run "pnc_stream"
    [
      ( "scenario",
        [
          Alcotest.test_case "realize = per-index sample" `Quick test_replay_equality;
          Alcotest.test_case "prefix invariance" `Quick test_prefix_invariance;
          Alcotest.test_case "rate extremes" `Quick test_rate_extremes;
          Alcotest.test_case "rates honored, counted exactly" `Quick test_rates_honored;
          Alcotest.test_case "abrupt drift labels" `Quick test_abrupt_drift_labels;
        ] );
      ( "windows",
        [
          Alcotest.test_case "stride = width partitions" `Quick test_window_partition;
          Alcotest.test_case "stride < width overlaps" `Quick test_window_overlap;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "streaming = offline, eps 0" `Slow test_offline_parity;
          Alcotest.test_case "pool invariance" `Slow test_pool_invariance;
          Alcotest.test_case "frozen pass never mutates params" `Slow
            test_frozen_never_mutates;
          Alcotest.test_case "one realization per frozen stream" `Slow
            test_one_realization_per_frozen_stream;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "drift detected with bounded latency" `Slow test_drift_detected;
          Alcotest.test_case "adaptation beats frozen after drift" `Slow
            test_adaptation_beats_frozen;
          Alcotest.test_case "adapted = per-op tape replay, eps 0" `Slow
            test_adaptation_equals_per_op_replay;
          Alcotest.test_case "filters adaptation: gradients only for the filters" `Quick
            test_filters_adaptation_grads_only_filters;
          Alcotest.test_case "fingerprints" `Quick test_fingerprints;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "injected dropped-tail slicer diverges" `Quick
            test_battery_catches_dropped_tail;
        ] );
    ]

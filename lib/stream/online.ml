module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Optimizer = Pnc_optim.Optimizer
module Model = Pnc_core.Model
module Mc_loss = Pnc_core.Mc_loss
module Train = Pnc_core.Train
module Network = Pnc_core.Network
module Filter_layer = Pnc_core.Filter_layer
module Variation = Pnc_core.Variation
module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

type adapt = Off | Filters | All

let adapt_tag = function Off -> "off" | Filters -> "filters" | All -> "all"

let adapt_of_tag = function
  | "off" -> Some Off
  | "filters" -> Some Filters
  | "all" -> Some All
  | _ -> None

type state_init = [ `V0 | `Zero | `Randomized of float ]

let state_init_tag = function
  | `V0 -> "v0"
  | `Zero -> "zero"
  | `Randomized s -> Printf.sprintf "rand%g" s

type protocol = {
  width : int;
  stride : int;
  state_init : state_init;
  adapt : adapt;
  adapt_lr : float;
  adapt_steps : int;
  detect_baseline : int;
  detect_drop : float;
}

let default_protocol =
  {
    width = 16;
    stride = 16;
    state_init = `V0;
    adapt = Off;
    adapt_lr = 0.05;
    adapt_steps = 2;
    detect_baseline = 3;
    detect_drop = 0.25;
  }

let fingerprint p =
  Printf.sprintf "online|w=%d|s=%d|init=%s|adapt=%s|lr=%g|steps=%d|detect=%d:%g" p.width
    p.stride (state_init_tag p.state_init) (adapt_tag p.adapt) p.adapt_lr p.adapt_steps
    p.detect_baseline p.detect_drop

type point = { w : int; start : int; len : int; correct : int; acc : float }

type result = {
  points : point array;
  overall_acc : float;
  pre_drift_acc : float option;
  post_drift_acc : float option;
  first_drift_window : int option;
  detected_at : int option;
  detect_latency : int option;
}

let windows_counter = Obs.Counter.make "stream.windows"
let samples_counter = Obs.Counter.make "stream.samples"
let adapt_steps_counter = Obs.Counter.make "stream.adapt_steps"
let window_seconds_hist = Obs.Histogram.make "stream.window_seconds"

let snapshot_params model = Train.snapshot (Model.params model)
let restore_params model snap = Train.restore (Model.params model) snap

let adapt_params protocol model =
  match (protocol.adapt, model) with
  | Off, _ -> []
  | All, _ -> Model.params model
  | Filters, Model.Circuit net ->
      List.concat_map (fun (_, fl, _) -> Filter_layer.params fl) (Network.layers net)
  | Filters, Model.Reference _ -> []

(* Detection: the reference level is the mean accuracy of the first
   [detect_baseline] windows; the detector fires at the first later
   window whose accuracy falls more than [detect_drop] below it. *)
let detect protocol (points : point array) =
  let nb = protocol.detect_baseline in
  if nb < 1 || Array.length points <= nb then None
  else begin
    let baseline = ref 0. in
    for w = 0 to nb - 1 do
      baseline := !baseline +. points.(w).acc
    done;
    let baseline = !baseline /. float_of_int nb in
    let rec go w =
      if w >= Array.length points then None
      else if points.(w).acc < baseline -. protocol.detect_drop then Some w
      else go (w + 1)
    in
    go nb
  end

let mean_acc = function
  | [] -> None
  | ps ->
      let c, n =
        List.fold_left (fun (c, n) (p : point) -> (c + p.correct, n + p.len)) (0, 0) ps
      in
      Some (float_of_int c /. float_of_int n)

let eval ?(opts = Pnc_core.Batch.default) ?pool ?spec ?v0_sigma ~rng protocol model
    (rz : Scenario.realized) =
  if protocol.width <= 0 || protocol.stride <= 0 then
    invalid_arg "Online.eval: width and stride must be positive";
  let n = Array.length rz.Scenario.x in
  let windows =
    Array.of_list (Window.slice ~n ~width:protocol.width ~stride:protocol.stride)
  in
  let nw = Array.length windows in
  let x_all = T.of_rows rz.Scenario.x in
  (* Split into time steps once per stream; each window scores row
     views of them. *)
  let steps_all = T.columns x_all in
  (* rng layout (part of the parity contract pinned by test_stream):
     child 0 carries the physical-instance draw — realized once for a
     frozen stream, replayed via Rng.copy for every window and
     adaptation step of an adapted one, so every window (and an offline
     comparator using a copy of the same child) sees the same physical
     circuit; child 1
     parents one pre-split state stream per window, so `Randomized
     initial states are a function of the window index alone (pool-
     and order-invariant). *)
  let top = Rng.split_n rng 2 in
  let state_rngs = Rng.split_n top.(1) nw in
  let mk_draw () =
    match spec with
    | None -> Variation.deterministic
    | Some s -> Variation.make_draw ?v0_sigma (Rng.copy top.(0)) s
  in
  let state_init_for w : Pnc_core.Filter_layer.state_init =
    match protocol.state_init with
    | `V0 -> `V0
    | `Zero -> `Zero
    | `Randomized sigma -> `Gaussian (state_rngs.(w), sigma)
  in
  let window_steps (win : Window.t) =
    Array.map (T.rows_view ~row:win.Window.start ~len:win.Window.len) steps_all
  in
  (* The physical instance under the current parameters. *)
  let realize () = Model.realize ~varied:opts.varied ~draw:(mk_draw ()) model in
  let score inst w =
    let t0 = if Obs.enabled () then Clock.now () else 0. in
    let win = windows.(w) in
    let steps = window_steps win in
    let pred =
      T.argmax_rows
        (Model.run_multi_batch_t ~opts:{ opts with state_init = state_init_for w } inst steps)
    in
    let correct = ref 0 in
    Array.iteri
      (fun j p -> if p = rz.Scenario.y.(win.Window.start + j) then incr correct)
      pred;
    let dt = if Obs.enabled () then Clock.elapsed t0 else 0. in
    ( {
        w;
        start = win.Window.start;
        len = win.Window.len;
        correct = !correct;
        acc = float_of_int !correct /. float_of_int win.Window.len;
      },
      dt )
  in
  let params = adapt_params protocol model in
  let scored =
    match params with
    | [] -> (
        (* Frozen model: one instance for the whole stream, which pool
           workers only read; windows are independent evaluations, and
           each one's randomness is pre-split — pooling them cannot
           change a bit. *)
        let inst = realize () in
        match pool with
        | Some p -> Pool.init p ~n:nw (score inst)
        | None -> Array.init nw (score inst))
    | _ :: _ ->
        (* Test-then-train (prequential): score window w with the
           current parameters, realized again after the previous
           window's steps, then take [adapt_steps] optimizer steps
           on its (x, y) buffer, each on the training objective of the
           replayed physical instance. Inherently sequential — the pool
           is not used (the tape is main-domain state, and window w+1
           must see the post-w parameters). *)
        let opt = Optimizer.adamw ~params () in
        Array.init nw (fun w ->
            let point = score (realize ()) w in
            let win = windows.(w) in
            let steps = window_steps win in
            let labels = Array.sub rz.Scenario.y win.Window.start win.Window.len in
            for _ = 1 to protocol.adapt_steps do
              let loss =
                Mc_loss.objective ~params ~n:1 ~tasks:[| [| mk_draw () |] |] model ~steps ~labels
              in
              Train.descend ~clip:5. opt ~lr:protocol.adapt_lr model loss;
              Obs.Counter.incr adapt_steps_counter
            done;
            point)
  in
  let points = Array.map fst scored in
  Obs.Counter.add windows_counter nw;
  Obs.Counter.add samples_counter n;
  if Obs.enabled () then
    Array.iter
      (fun ((p : point), dt) ->
        Obs.Histogram.observe window_seconds_hist dt;
        Obs.emit "stream.window"
          [
            ("w", Obs.Int p.w);
            ("start", Obs.Int p.start);
            ("len", Obs.Int p.len);
            ("acc", Obs.Float p.acc);
            ("adapted", Obs.Bool (params <> []));
            ("dur_s", Obs.Float dt);
          ])
      scored;
  let total_correct = Array.fold_left (fun a p -> a + p.correct) 0 points in
  let total_len = Array.fold_left (fun a p -> a + p.len) 0 points in
  let overall_acc = float_of_int total_correct /. float_of_int total_len in
  let first_drift_sample = Scenario.first_drift rz in
  let first_drift_window =
    Option.bind first_drift_sample (fun i ->
        Array.fold_left
          (fun acc (p : point) ->
            if acc = None && i < p.start + p.len then Some p.w else acc)
          None points)
  in
  let pre_drift_acc =
    Option.bind first_drift_sample (fun i ->
        mean_acc (List.filter (fun p -> p.start + p.len <= i) (Array.to_list points)))
  in
  let post_drift_acc =
    Option.bind first_drift_sample (fun i ->
        mean_acc (List.filter (fun p -> p.start >= i) (Array.to_list points)))
  in
  let detected_at = detect protocol points in
  let detect_latency =
    match (detected_at, first_drift_window) with
    | Some d, Some f when d >= f -> Some (d - f)
    | _ -> None
  in
  (match detected_at with
  | Some d when Obs.enabled () ->
      Obs.emit "stream.drift"
        [
          ("detected_at", Obs.Int d);
          ( "latency_windows",
            match detect_latency with Some l -> Obs.Int l | None -> Obs.Str "n/a" );
        ]
  | _ -> ());
  if Obs.enabled () then
    Obs.emit "stream.done"
      [
        ("windows", Obs.Int nw);
        ("samples", Obs.Int n);
        ("overall_acc", Obs.Float overall_acc);
        ("adapt", Obs.Str (adapt_tag protocol.adapt));
        ( "pre_drift_acc",
          match pre_drift_acc with Some a -> Obs.Float a | None -> Obs.Str "n/a" );
        ( "post_drift_acc",
          match post_drift_acc with Some a -> Obs.Float a | None -> Obs.Str "n/a" );
        ( "detected_at",
          match detected_at with Some d -> Obs.Int d | None -> Obs.Str "none" );
      ];
  {
    points;
    overall_acc;
    pre_drift_acc;
    post_drift_acc;
    first_drift_window;
    detected_at;
    detect_latency;
  }

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Optimizer = Pnc_optim.Optimizer
module Scheduler = Pnc_optim.Scheduler
module Dataset = Pnc_data.Dataset
module Rng = Pnc_util.Rng
module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

let epochs_counter = Obs.Counter.make "train.epochs"
let epoch_seconds_hist = Obs.Histogram.make "train.epoch_seconds"
let eval_draws_counter = Obs.Counter.make "eval.variation_draws"

type config = {
  lr : float;
  lr_factor : float;
  patience : int;
  min_lr : float;
  max_epochs : int;
  mc_samples : int;
  mc_samples_val : int;
  variation : Variation.spec;
  grad_clip : float option;
  weight_decay : float;
  noise_injection : bool;
  antithetic : bool;
}

let paper_config =
  {
    lr = 0.1;
    lr_factor = 0.5;
    patience = 100;
    min_lr = 1e-5;
    max_epochs = 20_000;
    mc_samples = 4;
    mc_samples_val = 2;
    variation = Variation.uniform 0.1;
    grad_clip = Some 5.;
    weight_decay = 0.01;
    noise_injection = false;
    antithetic = false;
  }

let fast_config =
  {
    paper_config with
    lr = 0.05;
    patience = 20;
    max_epochs = 500;
    mc_samples = 2;
    mc_samples_val = 1;
  }

let smoke_config =
  { fast_config with patience = 5; max_epochs = 40; mc_samples = 2 }

type history = {
  epochs_run : int;
  final_lr : float;
  best_val_loss : float;
  train_loss_curve : float array;
  val_loss_curve : float array;
}

let to_xy (d : Dataset.t) = (T.of_rows d.x, d.y)

let snapshot params = List.map (fun p -> T.copy (Var.value p)) params

let restore params snap =
  List.iter2
    (fun p s ->
      let v = Var.value p in
      for r = 0 to T.rows v - 1 do
        for c = 0 to T.cols v - 1 do
          T.set v r c (T.get s r c)
        done
      done)
    params snap

exception Killed of int

let train ?(rng = Rng.create ~seed:0) ?checkpoint_every ?checkpoint_path ?resume_from
    ?die_at_epoch cfg model split =
  Obs.Span.with_ "train" @@ fun () ->
  let x_train, y_train = to_xy split.Dataset.train in
  let x_val, y_val = to_xy split.Dataset.valid in
  let params = Model.params model in
  let opt = Optimizer.adamw ~weight_decay:cfg.weight_decay ~params () in
  let sched =
    Scheduler.plateau ~factor:cfg.lr_factor ~patience:cfg.patience ~min_lr:cfg.min_lr
      ~init_lr:cfg.lr ()
  in
  let train_curve = ref [] and val_curve = ref [] in
  let best = ref infinity and best_snap = ref (snapshot params) in
  let epoch = ref 0 and stop = ref false in
  let rng =
    match resume_from with
    | None -> rng
    | Some path ->
        (* Restores model params, optimizer and scheduler in place;
           curves are stored oldest-first, the refs hold newest-first. *)
        let r = Persist.load_train_state ~path ~model ~opt ~sched in
        let r = match r with Ok r -> r | Error e -> raise (Pnc_ckpt.Ckpt.Error e) in
        epoch := r.Persist.r_epoch;
        best := r.Persist.r_best;
        best_snap := r.Persist.r_best_snap;
        train_curve := List.rev (Array.to_list r.Persist.r_train_curve);
        val_curve := List.rev (Array.to_list r.Persist.r_val_curve);
        r.Persist.r_rng
  in
  if Obs.enabled () && cfg.noise_injection then
    Obs.emit "train.ni"
      [
        ("mc_samples", Obs.Int cfg.mc_samples);
        ("level", Obs.Float cfg.variation.Variation.level);
        ( "corr_rho",
          Obs.Float
            (match cfg.variation.Variation.corr with
            | Some c -> c.Variation.rho
            | None -> 0.) );
      ];
  let every = match checkpoint_every with Some k when k >= 1 -> k | _ -> 1 in
  let maybe_checkpoint () =
    match checkpoint_path with
    | None -> ()
    | Some path ->
        if
          !epoch mod every = 0 || !stop || !epoch = cfg.max_epochs
          || die_at_epoch = Some !epoch
        then
          Persist.save_train_state ~path ~model ~opt ~sched ~rng ~epoch:!epoch ~best:!best
            ~best_snap:!best_snap
            ~train_curve:(Array.of_list (List.rev !train_curve))
            ~val_curve:(Array.of_list (List.rev !val_curve))
  in
  while (not !stop) && !epoch < cfg.max_epochs do
    incr epoch;
    Obs.Counter.incr epochs_counter;
    let t0 = if Obs.enabled () then Clock.now () else 0. in
    Optimizer.zero_grads opt;
    let loss =
      Mc_loss.expected ~antithetic:cfg.antithetic ~ni:cfg.noise_injection ~rng
        ~spec:cfg.variation ~n:cfg.mc_samples model ~x:x_train ~labels:y_train
    in
    Var.backward loss;
    (match cfg.grad_clip with
    | Some m -> Optimizer.clip_grad_norm opt ~max_norm:m
    | None -> ());
    Optimizer.step opt ~lr:(Scheduler.lr sched);
    Model.clamp model;
    let val_loss =
      Mc_loss.expected_value ~antithetic:cfg.antithetic ~rng ~spec:cfg.variation
        ~n:cfg.mc_samples_val model ~x:x_val ~labels:y_val
    in
    train_curve := T.get_scalar (Var.value loss) :: !train_curve;
    val_curve := val_loss :: !val_curve;
    if val_loss < !best then begin
      best := val_loss;
      best_snap := snapshot params
    end;
    if Obs.enabled () then begin
      let dt = Clock.elapsed t0 in
      Obs.Histogram.observe epoch_seconds_hist dt;
      Obs.emit "train.epoch"
        [
          ("epoch", Obs.Int !epoch);
          ("train_loss", Obs.Float (T.get_scalar (Var.value loss)));
          ("val_loss", Obs.Float val_loss);
          ("lr", Obs.Float (Scheduler.lr sched));
          ("grad_norm", Obs.Float (Optimizer.grad_norm opt));
          ("seconds", Obs.Float dt);
        ]
    end;
    (match Scheduler.observe sched val_loss with `Stop -> stop := true | `Continue -> ());
    maybe_checkpoint ();
    match die_at_epoch with
    | Some e when e = !epoch -> raise (Killed !epoch)
    | _ -> ()
  done;
  restore params !best_snap;
  if Obs.enabled () then
    Obs.emit "train.done"
      [
        ("epochs_run", Obs.Int !epoch);
        ("final_lr", Obs.Float (Scheduler.lr sched));
        ("best_val_loss", Obs.Float !best);
      ];
  {
    epochs_run = !epoch;
    final_lr = Scheduler.lr sched;
    best_val_loss = !best;
    train_loss_curve = Array.of_list (List.rev !train_curve);
    val_loss_curve = Array.of_list (List.rev !val_curve);
  }

let accuracy ?batch_size ?precision ?draw model d =
  let x, y = to_xy d in
  let pred = Model.predict_batch ?batch_size ?precision ?draw model x in
  Pnc_util.Stats.accuracy ~pred ~truth:y

let accuracy_under_variation ?batch_size ?precision ?pool ~rng ~spec ~draws model d =
  assert (draws >= 1);
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  let x, y = to_xy d in
  (* Split into time steps once per estimate: every draw and pool
     worker reads the same steps. *)
  let steps = T.columns x in
  (* One pre-split child stream per sampled instance — values and
     summation order are identical for every pool worker count. *)
  let rngs = Rng.split_n rng draws in
  let instance i =
    let draw = Variation.make_draw rngs.(i) spec in
    Pnc_util.Stats.accuracy
      ~pred:(T.argmax_rows (Model.logits_multi_batch_t ?batch_size ?precision ~draw model steps))
      ~truth:y
  in
  let accs =
    match pool with
    | None -> Array.init draws instance
    | Some p -> Pnc_util.Pool.init p ~n:draws instance
  in
  let acc = Array.fold_left ( +. ) 0. accs /. float_of_int draws in
  Obs.Counter.add eval_draws_counter draws;
  if Obs.enabled () then begin
    let dt = Clock.elapsed t0 in
    Obs.emit "eval.variation"
      [
        ("draws", Obs.Int draws);
        ("seconds", Obs.Float dt);
        ("draws_per_s", Obs.Float (float_of_int draws /. Float.max dt 1e-9));
        ("accuracy", Obs.Float acc);
      ]
  end;
  acc

let epoch_seconds ?(rng = Rng.create ~seed:0) cfg model split =
  let x_train, y_train = to_xy split.Dataset.train in
  let params = Model.params model in
  let opt = Optimizer.adamw ~weight_decay:cfg.weight_decay ~params () in
  let run () =
    Optimizer.zero_grads opt;
    let loss =
      Mc_loss.expected ~antithetic:cfg.antithetic ~ni:cfg.noise_injection ~rng
        ~spec:cfg.variation ~n:cfg.mc_samples model ~x:x_train ~labels:y_train
    in
    Var.backward loss;
    Optimizer.step opt ~lr:1e-4;
    Model.clamp model
  in
  (* One warm-up epoch, then the timed mean of three. *)
  run ();
  Pnc_util.Timer.time_mean ~repeats:3 run

(** Training and evaluation harness (Sec. IV-A3).

    The paper's procedure: AdamW with default settings, full-batch
    training, initial learning rate 0.1 halved after [patience] epochs
    without validation improvement, stop when the learning rate falls
    below 1e-5, repeated over random seeds. Variation-aware models
    optimize the Monte-Carlo objective of {!Mc_loss}; the weights that
    achieved the best validation loss are restored at the end. *)

type config = {
  lr : float;
  lr_factor : float;
  patience : int;
  min_lr : float;
  max_epochs : int;  (** hard cap on top of the schedule-driven stop *)
  mc_samples : int;  (** N of Eq. 13 (ignored by the reference RNN) *)
  mc_samples_val : int;  (** draws for the validation objective *)
  variation : Variation.spec;  (** training-time variation *)
  grad_clip : float option;
  weight_decay : float;
  noise_injection : bool;
      (** train through perturbed realizations with straight-through
          gradients to the clean parameters ({!Mc_loss.expected}'s [ni]
          mode); forward/loss values are unchanged, only gradients *)
  antithetic : bool;
      (** draw the Monte-Carlo samples as mirrored pairs
          ({!Variation.antithetic_pair}) in both the training and the
          validation objective — a same-cost variance reduction that
          matters most under correlated variation, where whole regions
          of the ε field move coherently *)
}

val paper_config : config
(** The paper's exact budget (patience 100, lr 0.1 → 1e-5). Long. *)

val fast_config : config
(** Reduced budget used by the benchmark harness so the full table
    regenerates in minutes: patience 12, max 260 epochs. *)

val smoke_config : config
(** Tiny budget for unit tests. *)

type history = {
  epochs_run : int;
  final_lr : float;
  best_val_loss : float;
  train_loss_curve : float array;
  val_loss_curve : float array;
}

val to_xy : Pnc_data.Dataset.t -> Pnc_tensor.Tensor.t * int array
(** Dataset to ([batch x time] tensor, labels). *)

val descend :
  ?clip:float -> Pnc_optim.Optimizer.t -> lr:float -> Model.t -> Pnc_autodiff.Var.t -> unit
(** [descend ?clip opt ~lr model loss] is the one optimizer step of
    every trainer: zero [opt]'s gradients, backpropagate [loss], clip
    their global norm to [clip] when given, step [opt] at [lr] and
    project [model] back into the printable window ({!Model.clamp}).
    {!train} clips per its config, online adaptation at 5, calibration
    trimming not at all. *)

val snapshot : Pnc_autodiff.Var.t list -> Pnc_tensor.Tensor.t list
val restore : Pnc_autodiff.Var.t list -> Pnc_tensor.Tensor.t list -> unit
(** Deep-copy the values of parameter leaves, and copy such a snapshot
    back into them in place. *)

exception Killed of int
(** Raised by [train] right after writing the checkpoint for epoch [e]
    when called with [~die_at_epoch:e] — a deterministic crash point
    for the fault-injection tests and the resume demo. *)

val train :
  ?rng:Pnc_util.Rng.t ->
  ?checkpoint_every:int ->
  ?checkpoint_path:string ->
  ?resume_from:string ->
  ?die_at_epoch:int ->
  config ->
  Model.t ->
  Pnc_data.Dataset.split ->
  history
(** Trains in place (the model's parameter tensors are mutated);
    restores the best-validation snapshot before returning.

    Training takes no {!Batch.opts}: the objective and the validation
    pass that selects the restored snapshot (model selection) always
    run at [`Exact] precision. Only scoring after training (e.g.
    {!accuracy} or {!accuracy_under_variation} with [opts]) follows a
    configured tier.

    With [checkpoint_path], a ["train"] checkpoint is written
    atomically every [checkpoint_every] epochs (default 1) and always
    at the final epoch. With [resume_from], the loop state — including
    the RNG stream position — is restored from that checkpoint before
    the first epoch, and the run continues bit-identically with the
    uninterrupted one: same per-epoch losses, same final parameters,
    and a [history] covering the run from epoch 1. Raises
    {!Pnc_ckpt.Ckpt.Error} if the resume checkpoint is corrupt or was
    written for a different model. [die_at_epoch] raises {!Killed}
    after that epoch's checkpoint is written. *)

val accuracy :
  ?opts:Batch.opts -> ?draw:Variation.draw -> Model.t -> Pnc_data.Dataset.t -> float
(** Deterministic accuracy unless a draw is supplied; runs on the
    no-grad engine with [opts]. *)

val accuracy_under_variation :
  ?opts:Batch.opts ->
  ?pool:Pnc_util.Pool.t ->
  rng:Pnc_util.Rng.t ->
  spec:Variation.spec ->
  draws:int ->
  Model.t ->
  Pnc_data.Dataset.t ->
  float
(** Mean accuracy over [draws] independent physical instances — the
    paper's "tested under ±10 % variation" protocol, and the scorer
    {!Sensitivity.analyze} runs per row. The instances are
    {!Mc_loss.task_draws}' plain draws, evaluated through
    {!Mc_loss.map_tasks}: each owns a pre-split child stream, so with
    [pool] the result is identical to the sequential one. The mean is
    the draw-order sum divided by the instance count. A reference
    model is one deterministic instance, so its result is {!accuracy}
    bit for bit and it counts as one draw. The input is split into time
    steps once per estimate. *)

val epoch : ?rng:Pnc_util.Rng.t -> config -> Model.t -> Pnc_data.Dataset.split -> unit -> unit
(** [epoch cfg model split] builds the optimizer once and returns a
    closure that runs one full-batch training epoch on [split]'s train
    set through the same step function as {!train}: zero the gradients,
    the MC objective of [cfg] (antithetic draws, noise injection),
    backward, gradient clipping per [cfg.grad_clip], one AdamW step
    (weight decay per [cfg]) at a fixed learning rate of 1e-4,
    [Model.clamp]. Only the validation pass and the schedule are left
    out. This is the unit the runtime comparison (Table II) times, both
    with [Timer.time_mean] and under Bechamel. *)

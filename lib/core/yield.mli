(** Monte-Carlo yield analysis of printed classifiers.

    In printed electronics the question behind the paper's robustness
    story is manufacturing yield: out of N printed instances of the
    same trained design, how many meet an accuracy specification once
    their components have been scattered by the process? This module
    samples physical instances with the one Monte-Carlo sampler
    ({!Mc_loss.task_draws}) and reports the distribution of their
    accuracies. *)

type result = {
  draws : int;
  mean_acc : float;
  std_acc : float;
  worst : float;
  best : float;
  yield : float;  (** fraction of instances with accuracy >= threshold *)
  threshold : float;
}

val estimate :
  ?opts:Batch.opts ->
  ?pool:Pnc_util.Pool.t ->
  rng:Pnc_util.Rng.t ->
  spec:Variation.spec ->
  threshold:float ->
  draws:int ->
  Model.t ->
  Pnc_data.Dataset.t ->
  result
(** Statistics over the per-instance accuracies (on the no-grad engine
    with [opts], the dataset converted once per estimate) of the
    instances {!Mc_loss.task_draws} samples, evaluated through
    {!Mc_loss.map_tasks}. The draws are those of
    {!Train.accuracy_under_variation} for the same [rng], [spec] and
    [draws], so [mean_acc] equals its result bit for bit. A reference
    (non-circuit) model is one deterministic instance; its result
    collapses to that accuracy. With [pool], the instances evaluate in
    parallel on the pool's domains; each owns a pre-split child stream,
    so the result is identical for every worker count. *)

val sweep_levels :
  ?opts:Batch.opts ->
  ?pool:Pnc_util.Pool.t ->
  rng:Pnc_util.Rng.t ->
  levels:float list ->
  threshold:float ->
  draws:int ->
  Model.t ->
  Pnc_data.Dataset.t ->
  (float * result) list
(** Yield as a function of the process-variation level (uniform ±level)
    — the ablation bench behind the paper's Fig. 5 narrative. Each
    level is one {!estimate} on the shared [rng]; level 0 is the
    nominal circuit, one draw of {!Variation.none}, whatever
    [draws]. *)

val describe : result -> string

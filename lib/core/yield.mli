(** Monte-Carlo yield analysis of printed classifiers.

    In printed electronics the question behind the paper's robustness
    story is manufacturing yield: out of N printed instances of the
    same trained design, how many meet an accuracy specification once
    their components have been scattered by the process? This module
    samples physical instances via {!Variation} draws and reports the
    distribution of their accuracies. *)

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
(** Reference (non-circuit) models have a single deterministic instance;
    their result collapses to that accuracy. With [pool], the sampled
    instances are evaluated in parallel on the pool's domains; each
    instance owns a pre-split child stream, so the result is identical
    for every worker count. Each instance evaluates on the no-grad
    engine with [opts]. *)

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
    — the ablation bench behind the paper's Fig. 5 narrative. *)

val describe : result -> string

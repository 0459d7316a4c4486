(** The variation-aware Monte-Carlo training objective (Eq. 12–14).

    The expected loss over component variation, coupling factors and
    initial voltages is approximated by averaging [n] independent
    forward passes, each with a fresh joint sample (θᵢ, Cᵢ, Rᵢ, µᵢ,
    V₀ᵢ). With [spec = Variation.none] and [n = 1] this reduces to the
    ordinary (no-variation-aware) objective used by the baseline.

    {!task_draws} and {!map_tasks} are the one Monte-Carlo sampler:
    every estimate under variation draws and evaluates its printed
    instances through them ({!Train.accuracy_under_variation} and so
    {!Sensitivity.analyze}, {!Yield.estimate}, the estimators here).

    {b Determinism contract.} {!task_draws} pre-splits one child
    generator per draw (per antithetic pair) from [rng] via
    {!Pnc_util.Rng.split_n}: draw i consumes child i and nothing else,
    so the per-draw values — and their fixed-order sum — are identical
    whether the draws run sequentially or distributed over a
    {!Pnc_util.Pool} of any worker count, and the training node and the
    tensor path consume randomness identically. *)

val task_draws :
  ?ste:bool ->
  antithetic:bool ->
  rng:Pnc_util.Rng.t ->
  spec:Variation.spec ->
  n:int ->
  Model.t ->
  int * Variation.draw array array
(** [(n', tasks)]: one estimate's instances, grouped into pool tasks,
    from one {!Pnc_util.Rng.split_n} of [rng]. For a circuit, [n' = n]
    and each task is one plain draw ({!Variation.make_draw}) or, with
    [antithetic] and [n >= 2], a mirrored pair
    ({!Variation.antithetic_pair}), plus one plain draw when [n] is
    odd. The reference RNN has no components: it is one deterministic
    instance, [n' = 1], whatever [n]. Estimates divide by [n']. [ste]
    (default false) marks every draw as straight-through. *)

val map_tasks :
  ?pool:Pnc_util.Pool.t -> (Variation.draw array -> 'a) -> Variation.draw array array -> 'a array
(** [Array.map], on [pool]'s domains when given; the result is in task
    order either way. [f] must not touch the gradient tape. *)

val objective :
  params:Pnc_autodiff.Var.t list ->
  n:int ->
  tasks:Variation.draw array array ->
  Model.t ->
  steps:Pnc_tensor.Tensor.t array ->
  labels:int array ->
  Pnc_autodiff.Var.t
(** The training objective over caller-held draws, on pre-split time
    steps (one [batch x inputs] tensor each, only read): [1/n] times
    the sum over [tasks] (one draw, or an antithetic pair) of each
    draw's mean cross-entropy, a [1 x 1] node. [params] are the leaves
    the caller steps. A circuit model is one fused tape node
    ({!Adjoint.expected}, integrated read-out) that sends gradients to
    those leaves alone, equal to those of the per-op graph built from
    {!Network.forward_multi} and
    {!Pnc_autodiff.Loss.softmax_cross_entropy} bit for bit. The
    reference RNN has no components: it ignores the draws and builds
    that per-op graph from {!Elman.forward_multi}, over all its
    leaves. This is the one
    point where a model picks its gradient engine: {!expected}, online
    adaptation and calibration trimming (with [n = 1] and a replayed
    draw) all build their objective here. Emits no telemetry. *)

val expected :
  ?antithetic:bool ->
  ?ni:bool ->
  rng:Pnc_util.Rng.t ->
  spec:Variation.spec ->
  n:int ->
  Model.t ->
  x:Pnc_tensor.Tensor.t ->
  labels:int array ->
  Pnc_autodiff.Var.t
(** Mean cross-entropy over [n] Monte-Carlo draws (a [1 x 1] node):
    {!objective} over the draws of this estimator and every leaf of
    the model ({!Model.params}). Its value equals
    {!expected_value}'s bit for bit.
    With [antithetic] (default false; an extension, not in the paper),
    draws come in mirrored pairs ({!Variation.antithetic_pair}), which
    reduces the estimator's variance at equal cost. With [ni] (default
    false), each draw is realized in noise-injection mode: forward
    values — and therefore the loss reported — are bit-identical to
    the plain estimator, but gradients flow straight through the
    variation fold to the clean parameters
    ({!Pnc_autodiff.Var.ste_mul}). *)

val expected_value :
  ?antithetic:bool ->
  ?opts:Batch.opts ->
  ?pool:Pnc_util.Pool.t ->
  rng:Pnc_util.Rng.t ->
  spec:Variation.spec ->
  n:int ->
  Model.t ->
  x:Pnc_tensor.Tensor.t ->
  labels:int array ->
  float
(** Forward-only evaluation of the same objective on the pure-tensor
    fast path — consumes the random stream exactly like {!expected} but
    allocates no autodiff nodes. With [pool], the independent draws are
    distributed across the pool's worker domains; the result is
    bit-identical to the sequential path for every worker count (each
    draw owns a pre-split child stream and the summation order is
    fixed). Each draw evaluates on the no-grad engine
    ({!Model.logits_multi_batch_t}) with [opts]. *)

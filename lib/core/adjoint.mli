(** The training objective of a circuit network as one fused tape node.

    {!expected} evaluates the Monte-Carlo cross-entropy of {!Mc_loss}
    (Eq. 12–14) over a set of variation draws and returns it as a single
    {!Pnc_autodiff.Var.fused} node whose parents are the parameter
    leaves the caller steps. Its value comes from {!Network}'s block
    forward ({!Network.forward_trajectory}), the loop that evaluation
    runs, over a per-domain workspace that keeps each step's filter
    states, filter inputs, tanh values and activations, allocated once
    and reused across draws, nodes and epochs. Its backward pass is a
    hand-written reverse-time sweep over that trajectory for every draw:
    the softmax cross-entropy, the read-out (integrated or last-step),
    the printed tanh's η₁..η₄, the filter stages (a/b through R, C,
    drift, µ and τ) and the crossbar's θ/θ_b with its |θ_eff|
    denominator, under plain or straight-through folds. Each draw is
    realized once, by {!Network.realize_net_t}: the forward runs its
    records' coefficients and the sweep reads the factors and
    intermediate values (ε, µ, r_eff, c_eff, µτ + Δt, θ_b·ε) they keep.

    {b Accumulation-order contract.} The sweep evaluates every backward
    closure of the per-op graph that [Network.forward_multi] and
    [Loss.softmax_cross_entropy] build, with the same operands, and sums
    contributions in [Var.backward]'s order: steps from last to first,
    draws in the tape's reverse order, the |θ_eff| and realization terms
    last. Closures that graph never reaches are skipped, not evaluated
    as zeros: under a last-step read-out, the top layer's tanh before
    the final step. The gradients it leaves on the stepped leaves are
    therefore bit-identical to the per-op tape's, and the node's value
    equals the no-grad objective's ({!Mc_loss.expected_value}'s) bit
    for bit. *)

val expected :
  ?params:Pnc_autodiff.Var.t list ->
  n:int ->
  tasks:Variation.draw array array ->
  readout:Batch.readout ->
  Network.t ->
  steps:Pnc_tensor.Tensor.t array ->
  labels:int array ->
  Pnc_autodiff.Var.t
(** [expected ~n ~tasks ~readout net ~steps ~labels] is [1/n] times the
    sum over [tasks] of each task's summed per-draw mean cross-entropy
    of the class scores read out by [readout] (a [1 x 1] node). [steps]
    are the pre-split time steps, one [batch x inputs] tensor each for
    a net of any input width ({!Pnc_tensor.Tensor.columns} of a
    univariate [batch x time] input); they are only read. A task is one
    draw or an antithetic pair [[| d1; d2 |]]; draws marked [ste] fold
    their variation straight through. The draws are realized here, in
    order, each consuming its own stream. Gradients reach only the
    leaves in [params] (default: every leaf of the net); a layer whose
    θ is not among them skips θ's gradient altogether. *)

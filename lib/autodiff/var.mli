(** Reverse-mode automatic differentiation over {!Pnc_tensor.Tensor}.

    A {!t} is a node of a dynamically built computation DAG. Operations
    record, for each parent, a closure mapping the output gradient to
    that parent's gradient contribution. {!backward} seeds the output
    with ones and propagates in reverse creation order (node ids grow
    monotonically, so decreasing id is a valid reverse topological
    order for any DAG built by these combinators).

    The engine is the PyTorch-autograd substitute: it trains the Elman
    RNN reference, and it records the printed circuits' Monte-Carlo
    objective as one {!fused} node whose hand-written backward
    ([Pnc_core.Adjoint]) is tested bit for bit against the per-op graph
    of the printed crossbar surrogate, the learnable filters (first- and
    second-order) and the printed tanh activation built from these
    combinators. Gradients are property-tested against central finite
    differences in [test/test_autodiff.ml]. *)

type t

val value : t -> Pnc_tensor.Tensor.t
val grad : t -> Pnc_tensor.Tensor.t
(** Accumulated gradient; a fresh zeros tensor if none has been
    accumulated. Optimizer hot paths should prefer {!grad_opt}. *)

val grad_opt : t -> Pnc_tensor.Tensor.t option
(** Accumulated gradient without allocating: [None] until {!backward}
    reaches the node (and again after {!zero_grad}). *)

val requires_grad : t -> bool

(** {1 No-grad mode}

    Under {!with_no_grad}, every operation returns a constant-like node
    — no parents recorded, nothing pushed on the tape, [requires_grad]
    false — so evaluation-only code retains no graph. The pure-tensor
    fast paths in [lib/core] avoid [Var] entirely; this mode is the
    safety net for code still routed through the combinators. *)

val no_grad : bool ref
val with_no_grad : (unit -> 'a) -> 'a

val nodes_created : unit -> int
(** Total [Var] records ever created (monotonic counter). Used by tests
    to assert that evaluation fast paths allocate zero nodes. *)

val tape_recorded : unit -> int
(** Total nodes ever recorded on the backward tape (monotonic). Stays
    flat under {!with_no_grad} and across pure-tensor evaluation. *)

(** {1 Leaves} *)

val param : Pnc_tensor.Tensor.t -> t
(** Trainable leaf: receives a gradient and is updated by optimizers. *)

val const : Pnc_tensor.Tensor.t -> t
(** Non-trainable leaf (inputs, sampled variation factors, targets). *)

val zero_grad : t -> unit
(** Reset the accumulated gradient of a leaf to zeros. *)

(** {1 Elementwise binary (equal shapes)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val ste_mul : t -> Pnc_tensor.Tensor.t -> t
(** [ste_mul v eps] forwards [v ⊙ eps] (bit-identical to
    [mul v (const eps)]) but backpropagates the straight-through
    estimator: the incoming gradient passes to [v] unscaled
    (dL/dv := dL/d(v⊙eps)). Used by noise-injection training, where the
    forward pass sees the perturbed parameters but the update is
    applied to the clean ones. *)

(** {1 Row-vector broadcast: [m x n] op [1 x n]} *)

val add_rv : t -> t -> t
val sub_rv : t -> t -> t
val mul_rv : t -> t -> t
val div_rv : t -> t -> t

val affine_rv : t -> t -> t -> t -> t
(** [affine_rv s a x b] = [s ∘ a + x ∘ b] with [s], [x] matrices and
    [a], [b] row vectors — the fused filter state update
    [V(k) = a·V(k−1) + b·V_in(k)] unrolled 64 times per channel. *)

(** {1 Unary} *)

val scale : float -> t -> t
val add_scalar : float -> t -> t
val tanh : t -> t
val abs : t -> t
(** Subgradient 0 at 0. *)

val sqr : t -> t

(** {1 Linear algebra and reductions} *)

val matmul : t -> t -> t
val sum : t -> t
(** Sum of all elements, as a [1 x 1] node. *)

val mean : t -> t
val sum_rows : t -> t
(** [m x n -> 1 x n]. *)

(** {1 Fused nodes} *)

val fused :
  Pnc_tensor.Tensor.t ->
  parents:t list ->
  (Pnc_tensor.Tensor.t -> (t -> Pnc_tensor.Tensor.t -> unit) -> unit) ->
  t
(** [fused value ~parents sweep] records one tape node that stands for
    a whole subgraph whose backward pass is written by hand. When
    {!backward} reaches the node, it calls [sweep g emit] once with the
    node's output gradient [g]. Each [emit p gp] accumulates [gp] into
    [p], which must be one of [parents], exactly like one combinator
    contribution: the first one is copied, later ones are added, and
    parents without [requires_grad] ignore it. A sweep that emits the
    per-op graph's contributions in that graph's reverse order therefore
    leaves bit-identical gradients. [emit] may be called any number of
    times per parent; [gp] is only read during the call. Under
    {!with_no_grad} the node is constant-like, as for every
    combinator. *)

(** {1 Backward pass} *)

val backward : t -> unit
(** Seeds the node (any shape; seeded with ones) and accumulates
    gradients into every reachable leaf with [requires_grad]. Interior
    nodes are recorded on a global tape at creation, so the pass is a
    single reverse walk of the tape — no per-call reachability
    collection or sort. Multiple calls accumulate; call {!zero_grad} on
    the leaves between steps. *)

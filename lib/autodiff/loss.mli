(** Training losses.

    The classification objective used throughout the paper is the
    softmax cross-entropy over the circuit's class scores. The op is fused (forward log-sum-exp, backward
    [softmax - onehot]) for numerical stability. *)

val softmax_cross_entropy : logits:Var.t -> labels:int array -> Var.t
(** Mean cross-entropy over the batch; [logits] is [batch x classes],
    [labels.(b)] in [0, classes). Returns a [1 x 1] node. *)

val cross_entropy_value : logits:Pnc_tensor.Tensor.t -> labels:int array -> float
(** Forward-only mean cross-entropy on raw logits — the no-grad
    counterpart of {!softmax_cross_entropy}, same clipping and
    summation order. *)

val softmax_rows : Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** Row-wise softmax of raw values (used for reporting, not training). *)

(** Hardware-agnostic 2-layer Elman RNN — the paper's reference
    accuracy model (Table I, first column), trained with the same
    optimizer and schedule as the circuit models. *)

type t

val create : ?hidden:int -> Pnc_util.Rng.t -> inputs:int -> classes:int -> t
(** Default [hidden = 8]. *)

val hidden : t -> int
val inputs : t -> int
val classes : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([l1/w] .. [b_out]); same order as
    {!params}. *)

val n_params : t -> int

val forward : t -> Pnc_tensor.Tensor.t -> Pnc_autodiff.Var.t
(** [batch x time] univariate series to [batch x classes] logits
    (linear read-out of the final hidden state). *)

val forward_multi : t -> Pnc_tensor.Tensor.t array -> Pnc_autodiff.Var.t

val forward_multi_batch_t :
  ?opts:Batch.opts -> t -> Pnc_tensor.Tensor.t array -> Pnc_tensor.Tensor.t
(** No-grad forward over pre-split time steps (one [batch x inputs]
    tensor per step): bit-identical to {!forward_multi} under [`Exact]
    precision; [`Fast] substitutes {!Pnc_tensor.Fast_math.tanh} for the
    cell activations. Only [opts.precision] applies. *)

(** Uniform handle over the three model families compared in the paper:
    the baseline pTPNC circuit, the proposed ADAPT-pNC circuit, and the
    Elman RNN reference. *)

type t = Circuit of Network.t | Reference of Elman.t

val label : t -> string

val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names for every trainable parameter; same
    order as {!params} (the persistence layer keys sections by these
    paths). *)

val n_params : t -> int

val logits : ?draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_autodiff.Var.t
(** [batch x time] to [batch x classes]. The draw is meaningful only
    for circuit models (the RNN has no physical components). *)

val logits_multi_batch_t :
  ?opts:Batch.opts ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t
(** No-grad logits over pre-split time steps — one [batch x inputs]
    tensor per step, e.g. from {!Pnc_tensor.Tensor.columns}:
    {!Network.forward_multi_batch_t} or {!Elman.forward_multi_batch_t}.
    Bit-identical to [Var.value (logits ...)] under the same draw at
    [`Exact] precision. Monte-Carlo estimators split their input once
    and reuse the steps across every draw and pool worker (the kernels
    only read them). *)

val logits_batch_t :
  ?opts:Batch.opts ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t
(** {!logits_multi_batch_t} on a [batch x time] input; a circuit reads
    it in place ({!Network.forward_batch_t}). *)

val predict_batch :
  ?opts:Batch.opts -> ?draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> int array
(** Argmax class per sample of {!logits_batch_t}; deterministic unless
    a draw is given. *)

val clamp : t -> unit
(** Printable-window projection; no-op for the reference RNN. *)

val is_circuit : t -> bool

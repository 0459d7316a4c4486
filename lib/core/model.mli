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

val logits_t : ?draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** Pure-tensor logits (no autodiff nodes); bit-identical to
    [Var.value (logits ...)] under the same draw. *)

val logits_batch_t :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t
(** Batched twin of {!logits_t}: the draw is realized once and the
    batch runs through it block of rows at a time ([?batch_size]
    resolved by {!Batch.resolve} — explicit argument, else
    [ADAPT_PNC_BATCH], else one block). Bit-identical to {!logits_t}
    for every batch size under [`Exact] (the default); [`Fast]
    substitutes {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh
    error) for the activation transcendentals. [state_init] selects
    the filter initial-voltage semantics (default [`V0]; batch-size
    invariant under every value — see {!Network.forward_batch_t});
    ignored by the reference RNN, which has no filter state. *)

val logits_multi_batch_t :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t
(** {!logits_batch_t} over pre-split time steps — one [batch x inputs]
    tensor per step, e.g. from {!Pnc_tensor.Tensor.columns}. Monte-Carlo
    estimators split their input once and reuse the steps across every
    draw and pool worker (the kernels only read them). *)

val predict : ?draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> int array
(** Runs on the tensor fast path. *)

val predict_batch :
  ?batch_size:int ->
  ?precision:[ `Exact | `Fast ] ->
  ?state_init:Filter_layer.state_init ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  int array
(** {!predict} on the batched path. *)

val clamp : t -> unit
(** Printable-window projection; no-op for the reference RNN. *)

val is_circuit : t -> bool

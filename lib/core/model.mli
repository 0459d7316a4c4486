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

(** {1 Instances}

    Evaluation realizes a model once, then runs inputs through the
    instance: a printed circuit's variation is fixed when it is made.
    Where the parameters are frozen, a caller holds the instance (the
    serve daemon per model version, a frozen stream once per stream);
    the draw-taking entries below realize a fresh one per call. *)

type instance =
  | Circuit_instance of Network.instance
  | Reference_instance of Elman.t
      (** the RNN has no physical components: it is its own instance,
          and a forward reads its current parameters *)

val realize : ?varied:Batch.families -> ?draw:Variation.draw -> t -> instance
(** The instance of a model under [draw] (default
    {!Variation.deterministic}, the nominal circuit), with only the
    [varied] families (default all) taking the draw
    ({!Network.realize}). Counted in [eval.realizations]. *)

val run_multi_batch_t :
  ?opts:Batch.opts -> instance -> Pnc_tensor.Tensor.t array -> Pnc_tensor.Tensor.t
(** No-grad logits of an instance over pre-split time steps — one
    [batch x inputs] tensor per step, e.g. from
    {!Pnc_tensor.Tensor.columns}: {!Network.forward_input} or
    {!Elman.forward_multi_batch_t}. The steps are only read, and the
    instance too, so pool workers may share both. [opts.varied] is not
    read. *)

val run_batch_t : ?opts:Batch.opts -> instance -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** {!run_multi_batch_t} on a [batch x time] input; a circuit reads it
    in place ({!Network.Series}). *)

val logits_multi_batch_t :
  ?opts:Batch.opts ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t array ->
  Pnc_tensor.Tensor.t
(** {!realize} under [draw] and [opts.varied], then
    {!run_multi_batch_t}. Bit-identical to [Var.value (logits ...)]
    under the same draw at [`Exact] precision. Monte-Carlo estimators
    draw a fresh instance per call and split their input once. *)

val logits_batch_t :
  ?opts:Batch.opts ->
  ?draw:Variation.draw ->
  t ->
  Pnc_tensor.Tensor.t ->
  Pnc_tensor.Tensor.t
(** {!realize}, then {!run_batch_t}. *)

val predict_batch :
  ?opts:Batch.opts -> ?draw:Variation.draw -> t -> Pnc_tensor.Tensor.t -> int array
(** Argmax class per sample of {!logits_batch_t}; deterministic unless
    a draw is given. *)

val clamp : t -> unit
(** Printable-window projection; no-op for the reference RNN. *)

val is_circuit : t -> bool

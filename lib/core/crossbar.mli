(** Learnable printed resistor crossbar (Fig. 3a, Eq. 1).

    Each connection carries a signed surrogate parameter θ: its
    magnitude is the printed conductance in units of the maximum
    printable crossbar conductance (so |θ| ∈ (0, 1]); a negative sign
    means the input passes through an inverter (Fig. 3c) before its
    weight resistor. The circuit computes

      V_out = (Σᵢ θᵢ Vᵢ + θ_b·V_b) / (Σᵢ |θᵢ| + |θ_b| + g_d)

    which is differentiable almost everywhere, so θ is trained
    directly. Under process variation every θ is multiplied by an
    ε factor from the active {!Variation.draw}. *)

type t

val create : Pnc_util.Rng.t -> inputs:int -> outputs:int -> t
val inputs : t -> int
val outputs : t -> int

val params : t -> Pnc_autodiff.Var.t list
(** [theta; theta_b] — handed to the optimizer. *)

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([theta], [theta_b]); same order as
    {!params}. *)

val forward : draw:Variation.draw -> t -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t
(** Map a [batch x inputs] node to [batch x outputs]. A fresh ε sample
    is taken from [draw] per call (per Monte-Carlo sample). *)

type realization
(** One physical instance of the crossbar: effective conductances with
    ε folded in, shared across all time steps of a sequence. *)

val realize : draw:Variation.draw -> t -> realization
val apply : realization -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t

type realization_t
(** Pure-tensor realization for the no-grad evaluation path; consumes
    the draw's random stream exactly like {!realize} and produces
    bit-identical outputs without building autodiff nodes. *)

val realize_t : draw:Variation.draw -> t -> realization_t

val apply_batch_t : realization_t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** Maps a [batch x inputs] tensor to the [batch x outputs] crossbar
    response — the unfused reference for the fused kernel in
    {!Network}. *)

val kernel_t :
  realization_t -> Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t
(** [(theta_eff, bias_num, 1/denominator)] — the raw coefficient
    tensors backing {!apply_batch_t}, exposed so {!Network} can fuse the
    bias-plus-normalization step into its single-pass layer kernel.
    Read-only views; mutating them voids the parity guarantees. *)

val forward_const :
  theta_eps:Pnc_tensor.Tensor.t ->
  bias_eps:Pnc_tensor.Tensor.t ->
  t ->
  Pnc_autodiff.Var.t ->
  Pnc_autodiff.Var.t
(** Forward with explicit ε factors (used to share one component draw
    across all time steps of a sequence). *)

val sample_eps : draw:Variation.draw -> t -> Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t
(** One joint ε sample (theta, bias) matching this crossbar's shape. *)

val theta_values : t -> Pnc_tensor.Tensor.t
(** Current surrogate weights (inputs x outputs), for hardware
    costing. *)

val bias_values : t -> Pnc_tensor.Tensor.t

val g_dummy : float
(** Normalized dummy conductance g_d added to the denominator. *)

val clamp : t -> unit
(** Project parameters back into the printable window (applied after
    each optimizer step). *)

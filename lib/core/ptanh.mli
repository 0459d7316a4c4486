(** Learnable printed tanh-like activation (Fig. 3b).

    ptanh(V) = η₁ + η₂ · tanh((V − η₃) · η₄), with per-neuron η
    parameters determined in hardware by the component values
    [R₁, R₂, T₁, T₂] of the activation circuit. The η are trained
    directly (as in the authors' prior pNC work) and perturbed
    multiplicatively under process variation. *)

type t

val create : Pnc_util.Rng.t -> features:int -> t
val features : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([eta1] .. [eta4]); same order as
    {!params}. *)

val forward_const :
  ?ste:bool -> eps:Pnc_tensor.Tensor.t array -> t -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t
(** [eps] holds four [1 x features] factors for η₁..η₄. [ste] (default
    false) folds them with {!Pnc_autodiff.Var.ste_mul} — identical
    forward, straight-through backward. *)

val forward : draw:Variation.draw -> t -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t

val sample_eps : draw:Variation.draw -> t -> Pnc_tensor.Tensor.t array

type realization
(** One physical instance (ε folded into the η rows), shared across the
    time steps of a sequence. *)

val realize : draw:Variation.draw -> t -> realization
val apply : realization -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t

type realization_t
(** Pure-tensor realization for the no-grad evaluation path. *)

val realize_t : draw:Variation.draw -> t -> realization_t

val apply_batch_t :
  ?precision:[ `Exact | `Fast ] -> realization_t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** ptanh of [x], elementwise — the unfused reference for the fused
    kernel in {!Network}. [`Exact] (the default) uses [Stdlib.tanh] and
    is bit-identical to the Var path; [`Fast] substitutes
    {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh error, so
    ≤|η₂|·1e-7 ≤ 1e-7 per output element) for the single
    transcendental. *)

val kernel_t :
  realization_t ->
  Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t * Pnc_tensor.Tensor.t
(** The realized (η₁, η₂, η₃, η₄) coefficient rows backing
    {!apply_batch_t}, exposed so {!Network} can fuse the activation into
    its single-pass layer kernel. Read-only views. *)

val eta_values : t -> Pnc_tensor.Tensor.t array
(** Current η₁..η₄ rows, for inspection and hardware costing. *)

val clamp : t -> unit
(** Keep the η in circuit-realizable windows: |η₁| ≤ 1, η₂ ∈ [0.2, 1],
    |η₃| ≤ 1, η₄ ∈ [0.5, 6]. *)

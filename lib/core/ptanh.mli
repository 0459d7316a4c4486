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

(** {1 Realization}

    One physical instance (ε folded into the η rows) under one draw,
    shared across the time steps of a sequence. {!realize_t} is the
    only function that samples an activation's draw: the ε of η₁..η₄
    in turn. *)

type realization_t = private {
  eps : Pnc_tensor.Tensor.t array;  (** ε of η₁..η₄, [1 x features] each *)
  eta : Pnc_tensor.Tensor.t array;  (** η·ε, the realized η₁..η₄ rows *)
}

val realize_t : draw:Variation.draw -> t -> realization_t

val apply_batch_t :
  ?precision:[ `Exact | `Fast ] -> realization_t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** ptanh of [x], elementwise — the unfused reference for the fused
    kernel in {!Network}. [`Exact] (the default) uses [Stdlib.tanh] and
    is bit-identical to the Var path; [`Fast] substitutes
    {!Pnc_tensor.Fast_math.tanh} (≤1e-7 absolute tanh error, so
    ≤|η₂|·1e-7 ≤ 1e-7 per output element) for the single
    transcendental. *)

type realization
(** The autodiff nodes of a realization: each η folded with its ε. *)

val realize : ste:bool -> t -> realization_t -> realization
(** [ste] folds with {!Pnc_autodiff.Var.ste_mul} — identical forward,
    straight-through backward. *)

val apply : realization -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t

val forward : draw:Variation.draw -> t -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t
(** ptanh of a node through a fresh realization under [draw]. *)

val eta_values : t -> Pnc_tensor.Tensor.t array
(** Current η₁..η₄ rows, for inspection and hardware costing. *)

val clamp : t -> unit
(** Keep the η in circuit-realizable windows: |η₁| ≤ 1, η₂ ∈ [0.2, 1],
    |η₃| ≤ 1, η₄ ∈ [0.5, 6]. *)

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

(** {1 Realization}

    One physical instance of the crossbar under one draw, shared across
    all time steps of a sequence. {!realize_t} is the only function
    that samples a crossbar's draw: it takes θ_b's ε factors from the
    stream, then θ's. *)

type realization_t = private {
  theta_eps : Pnc_tensor.Tensor.t;  (** ε of θ, [inputs x outputs] *)
  bias_eps : Pnc_tensor.Tensor.t;  (** ε of θ_b, [1 x outputs] *)
  theta_eff : Pnc_tensor.Tensor.t;  (** θ·ε *)
  bias_eff : Pnc_tensor.Tensor.t;  (** θ_b·ε *)
  bias_num : Pnc_tensor.Tensor.t;  (** V_b·θ_b·ε *)
  inv_den : Pnc_tensor.Tensor.t;  (** 1 / (Σᵢ|θᵢ·ε| + |θ_b·ε| + g_d) *)
}
(** The sampled factors and the effective values they give. *)

val realize_t : draw:Variation.draw -> t -> realization_t

val apply_batch_t : realization_t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** Maps a [batch x inputs] tensor to the [batch x outputs] crossbar
    response — the unfused reference for the fused kernel in
    {!Network}. *)

type realization
(** The autodiff nodes of a realization: θ and θ_b folded with its ε. *)

val realize : ste:bool -> t -> realization_t -> realization
(** [ste] folds with {!Pnc_autodiff.Var.ste_mul} — identical forward,
    straight-through backward. *)

val apply : realization -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t

val forward : draw:Variation.draw -> t -> Pnc_autodiff.Var.t -> Pnc_autodiff.Var.t
(** Map a [batch x inputs] node to [batch x outputs] through a fresh
    realization under [draw]. *)

val theta_values : t -> Pnc_tensor.Tensor.t
(** Current surrogate weights (inputs x outputs), for hardware
    costing. *)

val bias_values : t -> Pnc_tensor.Tensor.t

val g_dummy : float
(** Normalized dummy conductance g_d added to the denominator. *)

val clamp : t -> unit
(** Project parameters back into the printable window (applied after
    each optimizer step). *)

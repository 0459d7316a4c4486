(** Learnable printed low-pass filter banks: first-order (the baseline
    pTPNC of prior work) and the paper's second-order SO-LF.

    Each of the [features] channels owns its own printed resistor(s)
    and capacitor(s). Resistances and capacitances are trained
    separately (the paper's stated difference from prior work, which
    learned only the RC product) through normalized parameters
    r_norm = R / R_max and c_norm = C / C_max, and the discrete update

      V[k] = a · V[k−1] + b · V_in[k],
      a = RC / (µRC + Δt), b = Δt / (µRC + Δt)     (Eq. 10–11)

    is unrolled through the autodiff engine. The coupling factor µ and
    the initial voltage V₀ are non-trainable random variables sampled
    per {!Variation.draw}; component variation multiplies R and C by
    ε factors. *)

type order = First | Second

type t

val create : Pnc_util.Rng.t -> order -> features:int -> t
val order : t -> order
val features : t -> int
val params : t -> Pnc_autodiff.Var.t list

val named_params : t -> (string * Pnc_autodiff.Var.t) list
(** Stable checkpoint path names ([stage<i>/r_norm], [stage<i>/c_norm]);
    same order as {!params}. *)

(** {1 Realization}

    One physical sample of the filter bank under one draw, shared
    across the time steps of a sequence. {!realize_t} is the only
    function that samples a filter bank's draw: per stage ε_R, ε_C, µ,
    then V₀. *)

type stage_t = private {
  eps_r : Pnc_tensor.Tensor.t;  (** ε of R *)
  eps_c : Pnc_tensor.Tensor.t;  (** ε of C *)
  mu : Pnc_tensor.Tensor.t;  (** coupling factor µ *)
  v0 : Pnc_tensor.Tensor.t;  (** initial voltage V₀ *)
  r_eff : Pnc_tensor.Tensor.t;  (** r_norm·ε_R, times the R drift multiplier *)
  c_eff : Pnc_tensor.Tensor.t;  (** c_norm·ε_C, times the C drift multiplier *)
  den : Pnc_tensor.Tensor.t;  (** µτ + Δt, τ = {!tau_max}·r_eff·c_eff *)
  a : Pnc_tensor.Tensor.t;  (** τ / (µτ + Δt) *)
  b : Pnc_tensor.Tensor.t;  (** Δt / (µτ + Δt) *)
}
(** One stage's sampled factors and coefficient rows, [1 x features]
    each; the state update is [s' = s ∘ a + x ∘ b]. *)

type realization_t = private {
  r_mult : float;  (** {!Variation.drift_r_mult} of the draw *)
  c_mult : float;  (** {!Variation.drift_c_mult} of the draw *)
  stages_t : stage_t array;
}

val realize_t : draw:Variation.draw -> t -> realization_t

type realization
(** The autodiff nodes of a realization: each stage's a and b as
    functions of R and C. *)

val realize : ste:bool -> t -> realization_t -> realization
(** [ste] folds ε with {!Pnc_autodiff.Var.ste_mul} — identical
    forward, straight-through backward. *)

type state

val init_state : realization -> batch:int -> state

val step : realization -> state -> Pnc_autodiff.Var.t -> state * Pnc_autodiff.Var.t
(** Advance the filter bank by one time step: input and output are
    [batch x features] nodes. *)

(** {1 No-grad stepping}

    The same floating-point update as {!step}, in place on raw
    tensors. *)

type state_t = Pnc_tensor.Tensor.t array
(** One [batch x features] voltage tensor per stage, mutated in place
    by {!step_batch_t}. *)

type state_init = [ `V0 | `Zero | `Gaussian of Pnc_util.Rng.t * float ]
(** Initial-voltage semantics for a fresh (or reused) state:
    - [`V0] (the default, and the historical behaviour): every batch
      row starts from the draw's sampled initial voltages — the same
      physical power-up transient for each sample;
    - [`Zero]: the fully settled circuit (all capacitors discharged);
    - [`Gaussian (rng, sigma)]: an independent V[0] ~ N(0, sigma²) per
      (row, channel, stage) — the sliding-window regime of the
      exemplar LearnableFilter, where each window meets the filter
      mid-transient. The stream is consumed stage-major then
      row-major. *)

val reset_state_t : ?init:state_init -> realization_t -> state_t -> unit
(** Refill an existing state in place — the explicit entry point for
    callers that re-run a realization over many windows (instead of
    re-calling {!init_state_t} with ad-hoc conventions). A full-batch
    reset followed by row-sliced views is bit-identical to resetting
    each slice in turn only under [`V0]/[`Zero]; under [`Gaussian] the
    stream order makes the {e full-batch} reset the canonical one (the
    batched forwards pre-draw full states for exactly this reason). *)

val init_state_t : ?init:state_init -> realization_t -> batch:int -> state_t
(** Allocate and fill a fresh state; [init] defaults to [`V0], making
    this bit-identical to the historical entry point. *)

val step_batch_t : realization_t -> state_t -> Pnc_tensor.Tensor.t -> Pnc_tensor.Tensor.t
(** Advances the state in place and returns the last stage's voltages
    (an alias of the state, valid until the next step) — the unfused
    reference for the fused kernel in {!Network}. *)

val tau_max : float
(** [R_max · C_max]: the time constant of a stage at r_norm = c_norm = 1;
    a stage's τ is [tau_max · r_eff · c_eff]. *)

(** {1 Physical values} *)

val r_values : t -> float array array
(** [r_values f].(stage).(channel) in ohms; one stage for first-order,
    two for second-order. *)

val c_values : t -> float array array
(** Capacitances in farads, same indexing. *)

val cutoff_hz : t -> float array
(** Current per-channel −3 dB cutoff of the (ideal) filter. *)

val clamp : t -> unit
(** Project R and C back into the printable windows. *)

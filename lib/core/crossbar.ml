module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var

type t = { n_in : int; n_out : int; theta : Var.t; theta_b : Var.t }

let g_dummy = 0.05 (* in units of the max printable crossbar conductance *)

let create rng ~inputs ~outputs =
  assert (inputs > 0 && outputs > 0);
  (* Kaiming-flavoured init scaled to the normalized-conductance window:
     magnitudes well inside (threshold, 1], random signs. *)
  let scale = Float.min 0.8 (1.5 /. sqrt (float_of_int inputs)) in
  let init () =
    let mag = Pnc_util.Rng.uniform rng ~lo:0.3 ~hi:1.0 *. scale in
    if Pnc_util.Rng.bool rng then mag else -.mag
  in
  {
    n_in = inputs;
    n_out = outputs;
    theta = Var.param (T.init ~rows:inputs ~cols:outputs (fun _ _ -> init ()));
    theta_b = Var.param (T.init ~rows:1 ~cols:outputs (fun _ _ -> 0.3 *. init ()));
  }

let inputs cb = cb.n_in
let outputs cb = cb.n_out
let params cb = [ cb.theta; cb.theta_b ]
let named_params cb = [ ("theta", cb.theta); ("theta_b", cb.theta_b) ]

(* The crossbar is one physical device: its effective conductances are
   fixed for a whole sequence, so they are realized once and only the
   input-dependent part (matmul + bias + normalization) runs per time
   step. [realize_t] is the one place a crossbar samples its draw; the
   per-op graph, the fused kernel in [Network] and the adjoint sweep
   all read its record. The normalization divides by multiplying with a
   precomputed reciprocal, as [Var.div_rv] does, so logits are
   bit-identical between the paths under the same draw. *)
type realization_t = {
  theta_eps : T.t;
  bias_eps : T.t;
  theta_eff : T.t;
  bias_eff : T.t;
  bias_num : T.t;
  inv_den : T.t;
}

let realize_t ~draw cb =
  (* θ_b's factors come off the stream before θ's: the order every
     trained model and cached grid cell was sampled in. *)
  let bias_eps = Variation.eps_for draw ~rows:1 ~cols:cb.n_out in
  let theta_eps = Variation.eps_for draw ~rows:cb.n_in ~cols:cb.n_out in
  let theta_eff = T.mul (Var.value cb.theta) theta_eps in
  let bias_eff = T.mul (Var.value cb.theta_b) bias_eps in
  let den =
    T.add_scalar g_dummy (T.add (T.sum_rows (T.map Float.abs theta_eff)) (T.map Float.abs bias_eff))
  in
  {
    theta_eps;
    bias_eps;
    theta_eff;
    bias_eff;
    bias_num = T.scale Printed.v_supply bias_eff;
    inv_den = T.map (fun x -> 1. /. x) den;
  }

type realization = { w : Var.t; num : Var.t; den : Var.t }

let realize ~ste cb (r : realization_t) =
  (* [ste] swaps the variation fold for the straight-through estimator:
     forward values are bit-identical, only the backward rule changes
     (noise-injection training sees the perturbed crossbar but updates
     the clean conductances). *)
  let fold v eps = if ste then Var.ste_mul v eps else Var.mul v (Var.const eps) in
  let theta_eff = fold cb.theta r.theta_eps in
  let bias_eff = fold cb.theta_b r.bias_eps in
  {
    w = theta_eff;
    num = Var.scale Printed.v_supply bias_eff;
    den = Var.add_scalar g_dummy (Var.add (Var.sum_rows (Var.abs theta_eff)) (Var.abs bias_eff));
  }

let apply real x = Var.div_rv (Var.add_rv (Var.matmul x real.w) real.num) real.den
let forward ~draw cb x = apply (realize ~ste:draw.Variation.ste cb (realize_t ~draw cb)) x

let apply_batch_t real x =
  let out = T.zeros ~rows:(T.rows x) ~cols:(T.cols real.theta_eff) in
  T.matmul_into ~dst:out x real.theta_eff;
  T.add_mul_rv_inplace out ~add:real.bias_num ~mul:real.inv_den;
  out

let theta_values cb = T.copy (Var.value cb.theta)
let bias_values cb = T.copy (Var.value cb.theta_b)

let clamp cb =
  let project v =
    let t = Var.value v in
    for r = 0 to T.rows t - 1 do
      for c = 0 to T.cols t - 1 do
        T.set t r c (Printed.clamp_theta (T.get t r c))
      done
    done
  in
  project cb.theta;
  project cb.theta_b

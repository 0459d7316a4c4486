(* The sampling-order oracle: a draw's variation factors rebuilt
   straight from [Variation]'s samplers, called in the documented
   realization order on a copy of the draw's stream.

   The order, per layer: for each filter stage ε_R, ε_C, µ, V₀; then
   the activation's ε for η₁..η₄; then the crossbar's ε for θ_b and
   then for θ (bias first: the sampler was once a tuple expression,
   which OCaml evaluates right to left, and the order stays for the
   sake of every trained model's bits).
   Families left out of [varied] take the nominal draw, which consumes
   no stream. The fused engine, the per-op graph and the adjoint sweep
   all read one realization, so the parity suites cannot see a change
   to this order; comparing a realization against these factors can.

   The module lives in the test directory and is linked into every
   test executable of the [(tests ...)] stanza. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Variation = Pnc_core.Variation
module Batch = Pnc_core.Batch
module Network = Pnc_core.Network
module Crossbar = Pnc_core.Crossbar
module Filter_layer = Pnc_core.Filter_layer
module Ptanh = Pnc_core.Ptanh

type stage = { eps_r : T.t; eps_c : T.t; mu : T.t; v0 : T.t }

type layer = {
  drift : float * float; (* the R and C drift multipliers *)
  stages : stage array;
  eta : T.t array; (* ε of η₁..η₄ *)
  theta : T.t;
  bias : T.t;
}

let n_stages fl = match Filter_layer.order fl with Filter_layer.First -> 1 | Second -> 2

(* Consumes [d]'s stream as a realization of [net] does; pass a copy
   ({!copy}) taken before the realization to recover its factors. *)
let factors ?(varied = Batch.all_families) net (d : Variation.draw) =
  let pick on = if on then d else Variation.deterministic in
  let d_cb = pick varied.Batch.crossbar
  and d_filt = pick varied.Batch.filter
  and d_act = pick varied.Batch.activation in
  List.map
    (fun (cb, fl, _) ->
      let n = Filter_layer.features fl in
      let stages =
        Array.init (n_stages fl) (fun _ ->
            let eps_r = Variation.eps_for d_filt ~rows:1 ~cols:n in
            let eps_c = Variation.eps_for d_filt ~rows:1 ~cols:n in
            let mu = Variation.mu_for d_filt ~cols:n in
            let v0 = Variation.v0_for d_filt ~cols:n in
            { eps_r; eps_c; mu; v0 })
      in
      let eta = Array.init 4 (fun _ -> Variation.eps_for d_act ~rows:1 ~cols:n) in
      let bias = Variation.eps_for d_cb ~rows:1 ~cols:(Crossbar.outputs cb) in
      let theta = Variation.eps_for d_cb ~rows:(Crossbar.inputs cb) ~cols:(Crossbar.outputs cb) in
      let drift = (Variation.drift_r_mult d_filt, Variation.drift_c_mult d_filt) in
      { drift; stages; eta; theta; bias })
    (Network.layers net)

let copy (d : Variation.draw) = { d with Variation.rng = Rng.copy d.Variation.rng }

(* One ε per parameter leaf, in [Network.params] order. *)
let leaf_eps net draw =
  List.concat_map
    (fun l ->
      [ l.theta; l.bias ]
      @ List.concat_map (fun s -> [ s.eps_r; s.eps_c ]) (Array.to_list l.stages)
      @ Array.to_list l.eta)
    (factors net (copy draw))

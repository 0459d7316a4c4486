module Var = Pnc_autodiff.Var
module Loss = Pnc_autodiff.Loss
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

let draws_counter = Obs.Counter.make "mc.draws"
let eval_seconds_hist = Obs.Histogram.make "mc.eval_seconds"

(* Per-call telemetry for both MC estimators. [path] distinguishes the
   autodiff ("var") and no-grad tensor ("tensor") evaluation paths;
   everything is behind the enabled-guard so the null sink reads no
   clock and allocates nothing. *)
let emit_eval ~path ~n ~t0 =
  if Obs.enabled () then begin
    let dt = Clock.elapsed t0 in
    Obs.Histogram.observe eval_seconds_hist dt;
    Obs.emit "mc.eval"
      [
        ("path", Obs.Str path);
        ("draws", Obs.Int n);
        ("seconds", Obs.Float dt);
        ("draws_per_s", Obs.Float (float_of_int n /. Float.max dt 1e-9));
      ]
  end

(* Correlated-model telemetry: one event per estimator call whose spec
   takes the correlated sampling path (not per draw — the draw count is
   already on [mc.draws]). *)
let emit_corr ~spec ~n =
  if Obs.enabled () && Variation.corr_active spec then
    match spec.Variation.corr with
    | Some c ->
        Obs.emit "mc.corr_draw"
          [
            ("rho", Obs.Float c.Variation.rho);
            ("clen", Obs.Float c.Variation.clen);
            ("draws", Obs.Int n);
          ]
    | None -> ()

(* The draws of one estimate. Per-draw stream pre-splitting is the
   engine's determinism contract: every MC draw, or antithetic pair,
   owns one child generator derived by indexed splitting from the
   caller's stream. Draw i is then a function of (parent state, i)
   alone, so the per-draw values are identical whether the draws run
   sequentially or distributed over a domain pool of any size, and every
   estimator built on these draws consumes randomness identically. A
   task is [n/2] mirrored pairs (plus one plain draw if [n] is odd) or
   [n] plain draws; the reference RNN takes one deterministic draw.
   [ste] marks every draw as straight-through. *)
let task_draws ?(ste = false) ~antithetic ~rng ~spec ~n model =
  let circuit = Model.is_circuit model in
  let n = if circuit then n else 1 in
  let antithetic = antithetic && circuit && n >= 2 in
  let rngs = Rng.split_n rng (if antithetic then (n / 2) + (n mod 2) else n) in
  let tasks =
    Array.mapi
      (fun j r ->
        if antithetic && j < n / 2 then begin
          let d1, d2 = Variation.antithetic_pair ~ste r spec in
          [| d1; d2 |]
        end
        else if circuit then [| Variation.make_draw ~ste r spec |]
        else [| Variation.deterministic |])
      rngs
  in
  (n, tasks)

let map_tasks ?pool f tasks =
  match pool with
  | None -> Array.map f tasks
  | Some p -> Pool.init p ~n:(Array.length tasks) (fun j -> f tasks.(j))

(* The one dispatch between the two gradient engines: a circuit trains
   through the fused node, and the reference RNN, which has no
   components and so ignores the draws, stays on the per-op tape. *)
let objective ~params ~n ~tasks model ~steps ~labels =
  match model with
  | Model.Circuit net ->
      Adjoint.expected ~params ~n ~tasks ~readout:Batch.Integrated net ~steps ~labels
  | Model.Reference m ->
      Var.scale (1. /. float_of_int n)
        (Loss.softmax_cross_entropy ~logits:(Elman.forward_multi m steps) ~labels)

let expected ?(antithetic = false) ?(ni = false) ~rng ~spec ~n model ~x ~labels =
  assert (n >= 1);
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  (* [ni] marks every draw as straight-through: forward losses (and so
     the reported objective) are bit-identical to the plain estimator;
     only the gradients change. *)
  let n, tasks = task_draws ~ste:ni ~antithetic ~rng ~spec ~n model in
  let result =
    objective ~params:(Model.params model) ~n ~tasks model ~steps:(Pnc_tensor.Tensor.columns x)
      ~labels
  in
  Obs.Counter.add draws_counter n;
  emit_eval ~path:"var" ~n ~t0;
  emit_corr ~spec ~n;
  result

(* Forward-only estimate on the tensor fast path: consumes the random
   stream exactly like [expected] (same pre-split children, same draw
   construction, same accumulation order) but never allocates autodiff
   nodes — which also makes it safe to distribute over a domain pool.
   The input is split into time steps once per estimate and shared
   read-only by every draw. *)
let value_of_draw ?opts ~draw model ~steps ~labels =
  Loss.cross_entropy_value
    ~logits:(Model.logits_multi_batch_t ?opts ~draw model steps)
    ~labels

let expected_value ?(antithetic = false) ?opts ?pool ~rng ~spec ~n model ~x ~labels =
  assert (n >= 1);
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  let n, tasks = task_draws ~antithetic ~rng ~spec ~n model in
  let steps = Pnc_tensor.Tensor.columns x in
  let value draw = value_of_draw ?opts ~draw model ~steps ~labels in
  let values =
    map_tasks ?pool (function [| d1; d2 |] -> value d1 +. value d2 | ds -> value ds.(0)) tasks
  in
  let result = 1. /. float_of_int n *. Array.fold_left ( +. ) 0. values in
  Obs.Counter.add draws_counter n;
  emit_eval ~path:"tensor" ~n ~t0;
  emit_corr ~spec ~n;
  result

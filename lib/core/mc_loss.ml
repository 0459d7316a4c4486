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

let loss_of_draw ~draw model ~x ~labels =
  Loss.softmax_cross_entropy ~logits:(Model.logits ~draw model x) ~labels

let one_sample ?ste ~rng ~spec model ~x ~labels =
  let draw =
    if Model.is_circuit model then Variation.make_draw ?ste rng spec
    else Variation.deterministic
  in
  loss_of_draw ~draw model ~x ~labels

(* Per-draw stream pre-splitting (the engine's determinism contract):
   every MC draw — or antithetic pair — owns one child generator,
   derived by indexed splitting from the caller's stream. Draw i is
   then a function of (parent state, i) alone, so the per-draw values
   are identical whether the draws run sequentially or distributed
   over a domain pool of any size, and the Var and tensor paths below
   consume randomness identically. *)
let draw_rngs ~antithetic ~rng ~n =
  let tasks = if antithetic then (n / 2) + (n mod 2) else n in
  Rng.split_n rng tasks

let normalize ~antithetic ~n model =
  let n = if Model.is_circuit model then n else 1 in
  (n, antithetic && Model.is_circuit model && n >= 2)

let expected ?(antithetic = false) ?(ni = false) ~rng ~spec ~n model ~x ~labels =
  assert (n >= 1);
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  let n, antithetic = normalize ~antithetic ~n model in
  let rngs = draw_rngs ~antithetic ~rng ~n in
  (* [ni] marks every draw as straight-through: forward losses (and so
     the reported objective) are bit-identical to the plain estimator;
     only the gradients change. *)
  let tasks =
    if antithetic then
      (* n/2 mirrored pairs (plus one plain sample if n is odd); each
         task contributes the pair's summed loss so the accumulation
         order matches [expected_value] exactly. *)
      Array.init (Array.length rngs) (fun j ->
          if j < n / 2 then begin
            let d1, d2 = Variation.antithetic_pair ~ste:ni rngs.(j) spec in
            Var.add (loss_of_draw ~draw:d1 model ~x ~labels) (loss_of_draw ~draw:d2 model ~x ~labels)
          end
          else one_sample ~ste:ni ~rng:rngs.(j) ~spec model ~x ~labels)
    else Array.init n (fun i -> one_sample ~ste:ni ~rng:rngs.(i) ~spec model ~x ~labels)
  in
  let sum =
    Array.fold_left
      (fun acc l -> match acc with None -> Some l | Some a -> Some (Var.add a l))
      None tasks
  in
  let result =
    match sum with Some s -> Var.scale (1. /. float_of_int n) s | None -> assert false
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

let one_sample_value ?opts ~rng ~spec model ~steps ~labels =
  let draw =
    if Model.is_circuit model then Variation.make_draw rng spec else Variation.deterministic
  in
  value_of_draw ?opts ~draw model ~steps ~labels

let expected_value ?(antithetic = false) ?opts ?pool ~rng ~spec ~n model
    ~x ~labels =
  assert (n >= 1);
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  let n, antithetic = normalize ~antithetic ~n model in
  let rngs = draw_rngs ~antithetic ~rng ~n in
  let steps = Pnc_tensor.Tensor.columns x in
  let task j =
    if antithetic then
      if j < n / 2 then begin
        let d1, d2 = Variation.antithetic_pair rngs.(j) spec in
        value_of_draw ?opts ~draw:d1 model ~steps ~labels
        +. value_of_draw ?opts ~draw:d2 model ~steps ~labels
      end
      else one_sample_value ?opts ~rng:rngs.(j) ~spec model ~steps ~labels
    else one_sample_value ?opts ~rng:rngs.(j) ~spec model ~steps ~labels
  in
  let n_tasks = Array.length rngs in
  let values =
    match pool with
    | None -> Array.init n_tasks task
    | Some p -> Pool.init p ~n:n_tasks task
  in
  let result = 1. /. float_of_int n *. Array.fold_left ( +. ) 0. values in
  Obs.Counter.add draws_counter n;
  emit_eval ~path:"tensor" ~n ~t0;
  emit_corr ~spec ~n;
  result

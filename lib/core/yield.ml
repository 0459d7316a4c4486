module Stats = Pnc_util.Stats
module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

let draws_counter = Obs.Counter.make "yield.draws"

type result = {
  draws : int;
  mean_acc : float;
  std_acc : float;
  worst : float;
  best : float;
  yield : float;
  threshold : float;
}

let of_accuracies ~threshold accs =
  let n = Array.length accs in
  assert (n > 0);
  let ok = Array.fold_left (fun acc a -> if a >= threshold then acc + 1 else acc) 0 accs in
  {
    draws = n;
    mean_acc = Stats.mean accs;
    std_acc = Stats.std accs;
    worst = Array.fold_left Float.min accs.(0) accs;
    best = Array.fold_left Float.max accs.(0) accs;
    yield = float_of_int ok /. float_of_int n;
    threshold;
  }

let estimate ?opts ?pool ~rng ~spec ~threshold ~draws model dataset =
  assert (draws >= 1);
  let t0 = if Obs.enabled () then Clock.now () else 0. in
  let x, y = Train.to_xy dataset in
  let accs =
    if Model.is_circuit model then begin
      (* One pre-split child stream per printed instance: instance i is
         a function of (rng state, i) alone, so the sampled accuracies
         are identical in value and order for every pool worker
         count (and with no pool at all). *)
      let rngs = Pnc_util.Rng.split_n rng draws in
      let steps = Pnc_tensor.Tensor.columns x in
      let instance i =
        let draw = Variation.make_draw rngs.(i) spec in
        let logits = Model.logits_multi_batch_t ?opts ~draw model steps in
        Pnc_util.Stats.accuracy ~pred:(Pnc_tensor.Tensor.argmax_rows logits) ~truth:y
      in
      match pool with
      | None -> Array.init draws instance
      | Some p -> Pnc_util.Pool.init p ~n:draws instance
    end
    else
      [|
        Pnc_util.Stats.accuracy ~pred:(Model.predict_batch ?opts model x) ~truth:y;
      |]
  in
  let r = of_accuracies ~threshold accs in
  Obs.Counter.add draws_counter r.draws;
  if Obs.enabled () then begin
    let dt = Clock.elapsed t0 in
    Obs.emit "yield.estimate"
      [
        ("draws", Obs.Int r.draws);
        ("seconds", Obs.Float dt);
        ("draws_per_s", Obs.Float (float_of_int r.draws /. Float.max dt 1e-9));
        ("mean_acc", Obs.Float r.mean_acc);
        ("yield", Obs.Float r.yield);
        ("threshold", Obs.Float r.threshold);
      ]
  end;
  r

let sweep_levels ?opts ?pool ~rng ~levels ~threshold ~draws model dataset =
  List.map
    (fun level ->
      let spec = if level = 0. then Variation.none else Variation.uniform level in
      let draws = if level = 0. then 1 else draws in
      (level, estimate ?opts ?pool ~rng ~spec ~threshold ~draws model dataset))
    levels

let describe r =
  Printf.sprintf "acc %.3f ± %.3f [%.3f, %.3f], yield(acc>=%.2f) = %.0f%% over %d instances"
    r.mean_acc r.std_acc r.worst r.best r.threshold (100. *. r.yield) r.draws

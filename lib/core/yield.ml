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
  let _, tasks = Mc_loss.task_draws ~antithetic:false ~rng ~spec ~n:draws model in
  let instance ds = Stats.accuracy ~pred:(Model.predict_batch ?opts ~draw:ds.(0) model x) ~truth:y in
  let accs = Mc_loss.map_tasks ?pool instance tasks in
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

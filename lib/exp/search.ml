module Rng = Pnc_util.Rng
module Dataset = Pnc_data.Dataset
module Network = Pnc_core.Network
module Filter_layer = Pnc_core.Filter_layer
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Hardware = Pnc_core.Hardware

type genome = { hidden : int; order : Filter_layer.order; use_va : bool; use_at : bool }

type candidate = {
  genome : genome;
  val_acc : float;
  test_acc : float;
  devices : int;
  power_mw : float;
}

let describe_genome g =
  Printf.sprintf "hidden=%d %s%s%s" g.hidden
    (match g.order with Filter_layer.First -> "LF" | Filter_layer.Second -> "SO-LF")
    (if g.use_va then " +VA" else "")
    (if g.use_at then " +AT" else "")

let random_genome rng =
  {
    hidden = 2 + Rng.int rng 9;
    order = (if Rng.bool rng then Filter_layer.First else Filter_layer.Second);
    use_va = Rng.bool rng;
    use_at = Rng.bool rng;
  }

let evaluate cfg ~dataset ~seed genome =
  let split, classes = Experiments.load_split ~augment:genome.use_at cfg ~dataset ~seed in
  (* The filter order decides between the two circuit families. *)
  let arch = match genome.order with Filter_layer.First -> Network.Ptpnc | Filter_layer.Second -> Network.Adapt in
  let net = Network.create ~hidden:genome.hidden (Rng.create ~seed:(seed + 77)) arch ~inputs:1 ~classes in
  let model = Model.Circuit net in
  let train_cfg = if genome.use_va then cfg.Config.train_va else cfg.Config.train_base in
  let _ = Train.train ~rng:(Rng.create ~seed:(seed + 3000)) train_cfg model split in
  let spec = Variation.uniform cfg.Config.eval_level in
  let opts = { Pnc_core.Batch.default with precision = cfg.Config.precision } in
  let eval d =
    Train.accuracy_under_variation ~opts ~rng:(Rng.create ~seed:(seed + 4000)) ~spec
      ~draws:cfg.Config.eval_draws model d
  in
  {
    genome;
    val_acc = eval split.Dataset.valid;
    test_acc = eval split.Dataset.test;
    devices = Hardware.total (Hardware.of_network net);
    power_mw = Hardware.power_mw net;
  }

let anchor_genome ~classes =
  {
    hidden = Stdlib.min 8 (Stdlib.max 4 (2 * classes));
    order = Filter_layer.Second;
    use_va = true;
    use_at = true;
  }

let random_search ?(progress = fun _ -> ()) cfg ~dataset ~seed ~budget =
  assert (budget >= 0);
  let raw = Pnc_data.Registry.load ?n:cfg.Config.dataset_n ~seed dataset in
  let rng = Rng.create ~seed:(seed + 9000) in
  let genomes =
    anchor_genome ~classes:raw.Dataset.n_classes
    :: List.init budget (fun _ -> random_genome rng)
  in
  let candidates =
    List.map
      (fun g ->
        progress (describe_genome g);
        evaluate cfg ~dataset ~seed g)
      genomes
  in
  List.sort (fun a b -> compare b.val_acc a.val_acc) candidates

let pareto_front candidates =
  let dominated c =
    List.exists
      (fun o ->
        o != c
        && o.val_acc >= c.val_acc
        && o.devices <= c.devices
        && (o.val_acc > c.val_acc || o.devices < c.devices))
      candidates
  in
  candidates
  |> List.filter (fun c -> not (dominated c))
  |> List.sort (fun a b -> compare a.devices b.devices)

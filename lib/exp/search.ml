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

let recipe g ~classes:_ =
  (* The filter order decides between the two circuit families. *)
  let arch = match g.order with Filter_layer.First -> Network.Ptpnc | Filter_layer.Second -> Network.Adapt in
  let at = if g.use_at then Some Pnc_augment.Augment.default_policy else None in
  { Experiments.family = Circuit arch; hidden = g.hidden; va = g.use_va; at; ni = false }

let evaluate cfg ~dataset ~seed genome =
  let t = Experiments.prepare cfg ~dataset ~seed (recipe genome) in
  let _ = Experiments.fit t in
  let model = t.Experiments.tr_model and split = t.Experiments.tr_split in
  let net = match model with Model.Circuit net -> net | Model.Reference _ -> assert false in
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

(* The paper's ADAPT-pNC design: the Full variant. *)
let anchor_genome ~classes =
  {
    hidden = (Experiments.recipe ~classes Experiments.Full).Experiments.hidden;
    order = Filter_layer.Second;
    use_va = true;
    use_at = true;
  }

let random_search ?(progress = fun _ -> ()) cfg ~dataset ~seed ~budget =
  assert (budget >= 0);
  let rng = Rng.create ~seed:(seed + 9000) in
  let genomes =
    anchor_genome ~classes:(Pnc_data.Registry.find dataset).Pnc_data.Registry.n_classes
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

(* Smart food packaging: cold-chain breach classification — one of the
   paper's target applications (Fig. 1: smart fruit/food packaging,
   smart milk carton).

   A printed temperature logger inside a package sees a temperature
   series during transport. Three conditions must be told apart at
   end-of-transport from the temporal profile alone:

     0 - intact cold chain        (flat, cold, small fluctuations)
     1 - single brief breach      (one warm excursion, recovered)
     2 - repeated / long breaches (multiple or sustained excursions)

   A disposable printed classifier is the economic fit here: the
   circuit costs cents, is biodegradable, and the decision ("accept /
   inspect / reject") only needs three output voltages.

   Run with: dune exec examples/smart_packaging.exe *)

module Dataset = Pnc_data.Dataset
module Augment = Pnc_augment.Augment
module Network = Pnc_core.Network
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Hardware = Pnc_core.Hardware
module Rng = Pnc_util.Rng

let temperature_trace rng ~condition ~length =
  let base = 4. +. Rng.gaussian ~sigma:0.4 rng (* degrees C *) in
  let breaches =
    match condition with
    | 0 -> [||]
    | 1 ->
        [| (Rng.uniform rng ~lo:0.2 ~hi:0.7, Rng.uniform rng ~lo:6. ~hi:12., 0.06) |]
    | _ ->
        Array.init
          (2 + Rng.int rng 2)
          (fun _ ->
            ( Rng.uniform rng ~lo:0.1 ~hi:0.8,
              Rng.uniform rng ~lo:5. ~hi:10.,
              Rng.uniform rng ~lo:0.08 ~hi:0.18 ))
  in
  Array.init length (fun i ->
      let t = float_of_int i /. float_of_int length in
      let excursion =
        Array.fold_left
          (fun acc (onset, amp, width) ->
            acc +. (amp *. exp (-.(((t -. onset) /. width) ** 2.))))
          0. breaches
      in
      base +. excursion +. Rng.gaussian ~sigma:0.25 rng)

let make_dataset rng ~n ~length =
  let y = Array.init n (fun i -> i mod 3) in
  let x = Array.map (fun condition -> temperature_trace rng ~condition ~length) y in
  Dataset.make ~name:"cold-chain" ~n_classes:3 ~x ~y

let () =
  let raw = make_dataset (Rng.create ~seed:21) ~n:270 ~length:128 in
  let split = Dataset.preprocess (Rng.create ~seed:22) raw in
  Printf.printf "cold-chain monitoring: %d transports, 3 conditions\n" (Dataset.n_samples raw);

  (* Train the robustness-aware circuit: cheap printed hardware has to
     tolerate both printing spread and sensor noise, so VA + AT are on. *)
  let arng = Rng.create ~seed:23 in
  let augment d = Augment.augment_dataset arng Augment.default_policy ~copies:1 d in
  let train_split =
    { split with Dataset.train = augment split.Dataset.train; valid = augment split.Dataset.valid }
  in
  let net = Network.create (Rng.create ~seed:24) Network.Adapt ~inputs:1 ~classes:3 in
  let model = Model.Circuit net in
  let cfg = { Train.fast_config with Train.max_epochs = 160 } in
  let history = Train.train ~rng:(Rng.create ~seed:25) cfg model train_split in
  Printf.printf "trained %d epochs\n" history.Train.epochs_run;

  let erng = Rng.create ~seed:26 in
  let spec = Variation.uniform 0.1 in
  Printf.printf "accuracy (clean):                   %.3f\n" (Train.accuracy model split.Dataset.test);
  Printf.printf "accuracy (±10%% printed components): %.3f\n"
    (Train.accuracy_under_variation ~rng:erng ~spec ~draws:10 model split.Dataset.test);

  (* Confusion matrix on the test set: what failure mode remains? *)
  let x, y = Train.to_xy split.Dataset.test in
  let pred = Model.predict_batch model x in
  let cm = Pnc_util.Stats.confusion ~n_classes:3 ~pred ~truth:y in
  print_endline "confusion (rows = truth: intact, brief, repeated):";
  Array.iter
    (fun row ->
      print_string "  ";
      Array.iter (fun v -> Printf.printf "%4d" v) row;
      print_newline ())
    cm;

  (* Bill of materials: is this printable for cents? *)
  let counts = Hardware.of_network net in
  Printf.printf "printed bill of materials: %s, %.3f mW static\n" (Hardware.describe counts)
    (Hardware.power_mw net)

(* Integration tests: end-to-end training of the three model families
   on small synthetic workloads, snapshot restoration, printable-window
   invariants after optimization, and evaluation protocols. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Printed = Pnc_core.Printed
module Filter_layer = Pnc_core.Filter_layer

let gpovy_split () =
  let raw = Registry.load ~seed:3 ~n:80 "GPOVY" in
  Dataset.preprocess (Rng.create ~seed:4) raw

let smoke = Train.smoke_config

let test_adapt_learns_separable () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:5 in
  let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let cfg = { smoke with Train.max_epochs = 120; patience = 15; mc_samples = 2 } in
  let _ = Train.train ~rng cfg model split in
  let acc = Train.accuracy model split.Dataset.test in
  Alcotest.(check bool) (Printf.sprintf "adapt beats chance strongly (%.3f)" acc) true (acc >= 0.8)

let test_baseline_learns_separable () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:6 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let cfg =
    { smoke with Train.max_epochs = 120; patience = 15; mc_samples = 1; variation = Variation.none }
  in
  let _ = Train.train ~rng cfg model split in
  let acc = Train.accuracy model split.Dataset.test in
  Alcotest.(check bool) (Printf.sprintf "baseline beats chance (%.3f)" acc) true (acc >= 0.7)

let test_elman_learns_separable () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:7 in
  let model = Model.Reference (Elman.create rng ~inputs:1 ~classes:2) in
  let cfg =
    { smoke with Train.max_epochs = 150; patience = 20; mc_samples = 1; variation = Variation.none }
  in
  let _ = Train.train ~rng cfg model split in
  let acc = Train.accuracy model split.Dataset.test in
  Alcotest.(check bool) (Printf.sprintf "elman beats chance (%.3f)" acc) true (acc >= 0.7)

let test_loss_decreases () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:8 in
  let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
  let cfg = { smoke with Train.max_epochs = 80; mc_samples = 1; variation = Variation.none } in
  let h = Train.train ~rng cfg (Model.Circuit net) split in
  let curve = h.Train.train_loss_curve in
  let first = curve.(0) in
  let best = Array.fold_left Float.min infinity curve in
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%.4f -> %.4f)" first best)
    true
    (best < first -. 0.05)

let test_history_shapes () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:9 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let cfg = { smoke with Train.max_epochs = 10 } in
  let h = Train.train ~rng cfg (Model.Circuit net) split in
  Alcotest.(check int) "curves match epochs" h.Train.epochs_run
    (Array.length h.Train.train_loss_curve);
  Alcotest.(check int) "val curve too" h.Train.epochs_run (Array.length h.Train.val_loss_curve);
  Alcotest.(check bool) "epochs bounded" true (h.Train.epochs_run <= 10)

let test_best_snapshot_restored () =
  (* With deterministic validation (no variation, v0 = 0 via
     deterministic evaluation) the restored model's validation loss must
     equal the recorded best. *)
  let split = gpovy_split () in
  let rng = Rng.create ~seed:10 in
  let model = Model.Reference (Elman.create rng ~inputs:1 ~classes:2) in
  let cfg = { smoke with Train.max_epochs = 60; mc_samples = 1; variation = Variation.none } in
  let h = Train.train ~rng cfg model split in
  let x, y = Train.to_xy split.Dataset.valid in
  let loss =
    Pnc_core.Mc_loss.expected_value ~rng ~spec:Variation.none ~n:1 model ~x ~labels:y
  in
  Alcotest.(check bool)
    (Printf.sprintf "restored val loss %.6f = best %.6f" loss h.Train.best_val_loss)
    true
    (Float.abs (loss -. h.Train.best_val_loss) < 1e-9)

let test_printable_invariants_after_training () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:11 in
  let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
  let cfg = { smoke with Train.max_epochs = 50 } in
  let _ = Train.train ~rng cfg (Model.Circuit net) split in
  List.iter
    (fun (cb, fl, _) ->
      let theta = Pnc_core.Crossbar.theta_values cb in
      Alcotest.(check bool) "theta clamped" true (T.max_abs theta <= 1. +. 1e-9);
      Array.iter
        (fun stage ->
          Array.iter
            (fun r ->
              Alcotest.(check bool) "R printable" true
                (r >= Printed.filter_r_min -. 1e-6 && r <= Printed.filter_r_max +. 1e-6))
            stage)
        (Filter_layer.r_values fl))
    (Network.layers net)

let test_accuracy_under_variation_bounds () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:12 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let acc =
    Train.accuracy_under_variation ~rng ~spec:(Variation.uniform 0.1) ~draws:3 model
      split.Dataset.test
  in
  Alcotest.(check bool) "in [0,1]" true (acc >= 0. && acc <= 1.)

let test_epoch_seconds_positive () =
  let split = gpovy_split () in
  let rng = Rng.create ~seed:13 in
  let net = Network.create ~hidden:2 rng Network.Ptpnc ~inputs:1 ~classes:2 in
  let s = Pnc_util.Timer.time_mean ~repeats:1 (Train.epoch smoke (Model.Circuit net) split) in
  Alcotest.(check bool) "positive" true (s > 0.)

let param_bits params =
  List.map (fun p -> Array.map Int64.bits_of_float (T.to_row_array (Var.value p))) params

(* [snapshot] is a deep copy, and [restore] writes it back into the
   same leaf tensors (the optimizer's moments stay bound to them). *)
let test_snapshot_restore () =
  let net = Network.create ~hidden:3 (Rng.create ~seed:14) Network.Adapt ~inputs:1 ~classes:2 in
  let params = Network.params net in
  let leaves = List.map Var.value params and before = param_bits params in
  let snap = Train.snapshot params in
  List.iter (fun p -> T.fill (Var.value p) 0.25) params;
  Alcotest.(check bool) "snapshot unchanged by later writes" true
    (List.for_all2 (fun s b -> Array.map Int64.bits_of_float (T.to_row_array s) = b) snap before);
  Train.restore params snap;
  Alcotest.(check bool) "restored bit for bit" true (param_bits params = before);
  Alcotest.(check bool) "restored in place" true
    (List.for_all2 ( == ) leaves (List.map Var.value params))

(* [descend] zeroes whatever gradient the leaves hold before it
   backpropagates, and leaves the circuit in the printable window even
   after a step far outside it. *)
let test_descend_drops_stale_grads_and_clamps () =
  let split = gpovy_split () in
  let x, labels = Train.to_xy split.Dataset.train in
  let fresh () =
    Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed:15) Network.Adapt ~inputs:1 ~classes:2)
  in
  let loss ?(labels = labels) model =
    Pnc_core.Mc_loss.expected ~rng:(Rng.create ~seed:16) ~spec:(Variation.uniform 0.1) ~n:2 model
      ~x ~labels
  in
  let stale = fresh () and clean = fresh () in
  (* a gradient pointing elsewhere: the objective with flipped labels *)
  Var.backward (loss ~labels:(Array.map (fun l -> 1 - l) labels) stale);
  List.iter
    (fun model ->
      let opt = Pnc_optim.Optimizer.adamw ~params:(Model.params model) () in
      Train.descend ~clip:5. opt ~lr:50. model (loss model))
    [ stale; clean ];
  Alcotest.(check bool) "stale gradient dropped" true
    (param_bits (Model.params stale) = param_bits (Model.params clean));
  Alcotest.(check bool) "the step moved the parameters" false
    (param_bits (Model.params clean) = param_bits (Model.params (fresh ())));
  match clean with
  | Model.Circuit net ->
      List.iter
        (fun (cb, fl, _) ->
          Alcotest.(check bool) "theta clamped" true
            (T.max_abs (Pnc_core.Crossbar.theta_values cb) <= 1. +. 1e-9);
          Array.iter
            (Array.iter (fun r ->
                 Alcotest.(check bool) "R printable" true
                   (r >= Printed.filter_r_min -. 1e-6 && r <= Printed.filter_r_max +. 1e-6)))
            (Filter_layer.r_values fl))
        (Network.layers net)
  | Model.Reference _ -> assert false

let test_variation_aware_helps_under_variation () =
  (* Train the same architecture with and without the MC objective and
     compare accuracy under strong (25%) component variation. The VA
     model must not be (much) worse; in the typical case it is better.
     This is the paper's central claim at smoke scale. *)
  let raw = Registry.load ~seed:31 ~n:120 "GPOVY" in
  let split = Dataset.preprocess (Rng.create ~seed:32) raw in
  let train_once ~va seed =
    let rng = Rng.create ~seed in
    let net = Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2 in
    let model = Model.Circuit net in
    let cfg =
      if va then { smoke with Train.max_epochs = 150; mc_samples = 4; variation = Variation.uniform 0.35 }
      else { smoke with Train.max_epochs = 150; mc_samples = 1; variation = Variation.none }
    in
    let _ = Train.train ~rng cfg model split in
    Train.accuracy_under_variation ~rng:(Rng.create ~seed:99) ~spec:(Variation.uniform 0.35)
      ~draws:10 model split.Dataset.test
  in
  let seeds = [ 41; 42; 43 ] in
  (* Median, not mean: at smoke scale the 35% VA optimization
     occasionally collapses outright for an unlucky seed (it does so
     for some seeds on every historical draw construction); the claim
     under test is about the typical trained model, so one collapsed
     run must not dominate the statistic. *)
  let med f =
    let xs = List.sort Float.compare (List.map f seeds) in
    List.nth xs (List.length xs / 2)
  in
  let va = med (train_once ~va:true) and base = med (train_once ~va:false) in
  Alcotest.(check bool)
    (Printf.sprintf "VA non-inferior under 35%% variation (median %.3f vs %.3f)" va base)
    true (va >= base -. 0.05)

let () =
  Alcotest.run "pnc_train"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "ADAPT learns" `Slow test_adapt_learns_separable;
          Alcotest.test_case "baseline learns" `Slow test_baseline_learns_separable;
          Alcotest.test_case "Elman learns" `Slow test_elman_learns_separable;
          Alcotest.test_case "loss decreases" `Slow test_loss_decreases;
          Alcotest.test_case "VA robustness" `Slow test_variation_aware_helps_under_variation;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "history shapes" `Quick test_history_shapes;
          Alcotest.test_case "best snapshot restored" `Quick test_best_snapshot_restored;
          Alcotest.test_case "printable invariants" `Quick test_printable_invariants_after_training;
          Alcotest.test_case "variation accuracy bounds" `Quick test_accuracy_under_variation_bounds;
          Alcotest.test_case "epoch seconds" `Quick test_epoch_seconds_positive;
          Alcotest.test_case "snapshot/restore in place" `Quick test_snapshot_restore;
          Alcotest.test_case "descend: stale grads dropped, clamped" `Quick
            test_descend_drops_stale_grads_and_clamps;
        ] );
    ]

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Optimizer = Pnc_optim.Optimizer

let chip ~seed spec =
  let frozen = Rng.create ~seed in
  fun () -> Variation.make_draw (Rng.copy frozen) spec

let bias_params net =
  List.concat_map
    (fun (cb, _, _) ->
      match Crossbar.params cb with [ _theta; theta_b ] -> [ theta_b ] | _ -> assert false)
    (Network.layers net)

let trim ?(epochs = 60) ?(lr = 0.02) ~chip net dataset =
  let x, y = Train.to_xy dataset in
  let params = bias_params net in
  let opt = Optimizer.adam ~params () in
  let steps = T.columns x and model = Model.Circuit net in
  for _ = 1 to epochs do
    let loss = Mc_loss.objective ~params ~n:1 ~tasks:[| [| chip () |] |] model ~steps ~labels:y in
    Train.descend opt ~lr model loss
  done

type outcome = { before : float; after : float }

let chip_accuracy ~chip net dataset = Train.accuracy ~draw:(chip ()) (Model.Circuit net) dataset

let evaluate ?epochs ?lr ~chip net ~calibration ~test =
  let saved = Train.snapshot (bias_params net) in
  let before = chip_accuracy ~chip net test in
  trim ?epochs ?lr ~chip net calibration;
  let after = chip_accuracy ~chip net test in
  (* Restore the design: each physical chip is trimmed independently. *)
  Train.restore (bias_params net) saved;
  { before; after }

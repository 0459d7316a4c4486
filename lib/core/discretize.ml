module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var

let quantize_value ~levels th =
  assert (levels >= 2);
  let lo = Printed.theta_print_threshold in
  let mag = Float.abs th in
  if mag < lo then 0.
  else
    let steps = float_of_int (levels - 1) in
    let pos = (Float.min 1. mag -. lo) /. (1. -. lo) in
    let snapped = lo +. (Float.round (pos *. steps) /. steps *. (1. -. lo)) in
    if th < 0. then -.snapped else snapped

let iter_theta net f =
  List.iter
    (fun (cb, _, _) ->
      List.iter
        (fun p ->
          let t = Var.value p in
          for r = 0 to T.rows t - 1 do
            for c = 0 to T.cols t - 1 do
              T.set t r c (f (T.get t r c))
            done
          done)
        (Crossbar.params cb))
    (Network.layers net)

let quantize_network ~levels net = iter_theta net (quantize_value ~levels)

let snapshot_theta net =
  List.concat_map
    (fun (cb, _, _) -> List.map (fun p -> T.copy (Var.value p)) (Crossbar.params cb))
    (Network.layers net)

let restore_theta net snap =
  let remaining = ref snap in
  List.iter
    (fun (cb, _, _) ->
      List.iter
        (fun p ->
          match !remaining with
          | saved :: rest ->
              remaining := rest;
              let t = Var.value p in
              for r = 0 to T.rows t - 1 do
                for c = 0 to T.cols t - 1 do
                  T.set t r c (T.get saved r c)
                done
              done
          | [] -> assert false)
        (Crossbar.params cb))
    (Network.layers net)

let with_quantized ~levels net f =
  let snap = snapshot_theta net in
  quantize_network ~levels net;
  Fun.protect ~finally:(fun () -> restore_theta net snap) f

let accuracy_ladder ~levels_list net dataset =
  let x, y = Train.to_xy dataset in
  List.map
    (fun levels ->
      let acc =
        with_quantized ~levels net (fun () ->
            Pnc_util.Stats.accuracy ~pred:(Model.predict_batch (Model.Circuit net) x) ~truth:y)
      in
      (levels, acc))
    levels_list

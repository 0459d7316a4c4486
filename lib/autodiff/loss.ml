module T = Pnc_tensor.Tensor

let softmax_rows logits =
  let b = T.rows logits and c = T.cols logits in
  let out = T.zeros ~rows:b ~cols:c in
  for r = 0 to b - 1 do
    let m = ref neg_infinity in
    for j = 0 to c - 1 do
      m := Float.max !m (T.get logits r j)
    done;
    let z = ref 0. in
    for j = 0 to c - 1 do
      let e = exp (T.get logits r j -. !m) in
      T.set out r j e;
      z := !z +. e
    done;
    for j = 0 to c - 1 do
      T.set out r j (T.get out r j /. !z)
    done
  done;
  out

let softmax_cross_entropy ~logits ~labels =
  let b = T.rows (Var.value logits) in
  assert (Array.length labels = b);
  let probs = softmax_rows (Var.value logits) in
  let loss = ref 0. in
  for r = 0 to b - 1 do
    loss := !loss -. log (Float.max 1e-12 (T.get probs r labels.(r)))
  done;
  let loss = !loss /. float_of_int b in
  (* Gradient w.r.t. logits: (softmax - onehot) / batch, scaled by the
     incoming scalar gradient. *)
  let dlogits =
    T.init ~rows:b ~cols:(T.cols probs) (fun r j ->
        let y = if labels.(r) = j then 1. else 0. in
        (T.get probs r j -. y) /. float_of_int b)
  in
  (* Express the fused op through a linear form with the right value and
     gradient: loss_node = sum (logits * const dlogits) + k, where k
     fixes the forward value. The gradient of this expression w.r.t.
     logits is exactly dlogits. *)
  let linear = Var.sum (Var.mul logits (Var.const dlogits)) in
  let k = loss -. T.get_scalar (Var.value linear) in
  Var.add_scalar k linear

let cross_entropy_value ~logits ~labels =
  let b = T.rows logits in
  assert (Array.length labels = b);
  let probs = softmax_rows logits in
  let loss = ref 0. in
  for r = 0 to b - 1 do
    loss := !loss -. log (Float.max 1e-12 (T.get probs r labels.(r)))
  done;
  !loss /. float_of_int b

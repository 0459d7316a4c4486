module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng

type cell = { w : Var.t; u : Var.t; b : Var.t }

type t = { n_in : int; n_hidden : int; n_classes : int; l1 : cell; l2 : cell; w_out : Var.t; b_out : Var.t }

let glorot rng ~rows ~cols =
  let bound = sqrt (6. /. float_of_int (rows + cols)) in
  Var.param (T.uniform rng ~rows ~cols ~lo:(-.bound) ~hi:bound)

let cell rng ~n_in ~n_hidden =
  {
    w = glorot rng ~rows:n_in ~cols:n_hidden;
    u = glorot rng ~rows:n_hidden ~cols:n_hidden;
    b = Var.param (T.zeros ~rows:1 ~cols:n_hidden);
  }

let create ?(hidden = 8) rng ~inputs ~classes =
  {
    n_in = inputs;
    n_hidden = hidden;
    n_classes = classes;
    l1 = cell rng ~n_in:inputs ~n_hidden:hidden;
    l2 = cell rng ~n_in:hidden ~n_hidden:hidden;
    w_out = glorot rng ~rows:hidden ~cols:classes;
    b_out = Var.param (T.zeros ~rows:1 ~cols:classes);
  }

let hidden m = m.n_hidden
let inputs m = m.n_in
let classes m = m.n_classes

let params m =
  [ m.l1.w; m.l1.u; m.l1.b; m.l2.w; m.l2.u; m.l2.b; m.w_out; m.b_out ]

let named_params m =
  [
    ("l1/w", m.l1.w);
    ("l1/u", m.l1.u);
    ("l1/b", m.l1.b);
    ("l2/w", m.l2.w);
    ("l2/u", m.l2.u);
    ("l2/b", m.l2.b);
    ("w_out", m.w_out);
    ("b_out", m.b_out);
  ]

let n_params m = List.fold_left (fun acc v -> acc + T.numel (Var.value v)) 0 (params m)

let cell_step c h x =
  Var.tanh (Var.add_rv (Var.add (Var.matmul x c.w) (Var.matmul h c.u)) c.b)

let forward_multi m steps =
  assert (Array.length steps > 0);
  let batch = T.rows steps.(0) in
  let h1 = ref (Var.const (T.zeros ~rows:batch ~cols:m.n_hidden)) in
  let h2 = ref (Var.const (T.zeros ~rows:batch ~cols:m.n_hidden)) in
  Array.iter
    (fun x_t ->
      h1 := cell_step m.l1 !h1 (Var.const x_t);
      h2 := cell_step m.l2 !h2 !h1)
    steps;
  Var.add_rv (Var.matmul !h2 m.w_out) m.b_out

let forward m x = forward_multi m (T.columns x)

(* Pure-tensor forward for evaluation — same floating-point operation
   sequence as the Var path, no autodiff nodes. [`Fast] swaps the
   per-element transcendental only. *)
let cell_step_t ?(precision = `Exact) c h x =
  let pre =
    T.add_rv (T.add (T.matmul x (Var.value c.w)) (T.matmul h (Var.value c.u))) (Var.value c.b)
  in
  match precision with
  | `Exact -> T.map Stdlib.tanh pre
  | `Fast ->
      (* In-place over the freshly allocated pre-activation (off = 0):
         one unboxed in-module loop instead of a boxing per-element
         cross-module call. *)
      Pnc_tensor.Fast_math.apply_range pre.T.data ~off:pre.T.off ~len:(T.numel pre);
      pre

let forward_multi_t ?precision m steps =
  assert (Array.length steps > 0);
  let batch = T.rows steps.(0) in
  let h1 = ref (T.zeros ~rows:batch ~cols:m.n_hidden) in
  let h2 = ref (T.zeros ~rows:batch ~cols:m.n_hidden) in
  Array.iter
    (fun x_t ->
      h1 := cell_step_t ?precision m.l1 !h1 x_t;
      h2 := cell_step_t ?precision m.l2 !h2 !h1)
    steps;
  T.add_rv (T.matmul !h2 (Var.value m.w_out)) (Var.value m.b_out)

let forward_t m x = forward_multi_t m (T.columns x)

(* Batched twin: the recurrence carries rows independently (matmuls by
   fixed weights + row-broadcast biases), so chunking the batch through
   zero-copy row views is bit-identical to one whole-batch forward for
   any batch size. *)
let forward_multi_batch_t ?batch_size ?precision m steps =
  assert (Array.length steps > 0);
  let rows = T.rows steps.(0) in
  let block = Batch.resolve ?batch_size ~n:rows () in
  let t0 = Batch.start () in
  let out = T.zeros ~rows ~cols:m.n_classes in
  let blocks =
    Batch.chunked ~rows ~block (fun ~row ~len ->
        let sub = Array.map (fun s -> T.rows_view s ~row ~len) steps in
        T.blit_into ~dst:(T.rows_view out ~row ~len) (forward_multi_t ?precision m sub))
  in
  Batch.record ~block ~rows ~blocks ~t0;
  out

let forward_batch_t ?batch_size ?precision m x =
  forward_multi_batch_t ?batch_size ?precision m (T.columns x)

let predict m x = T.argmax_rows (forward_t m x)

let predict_batch ?batch_size ?precision m x =
  T.argmax_rows (forward_batch_t ?batch_size ?precision m x)

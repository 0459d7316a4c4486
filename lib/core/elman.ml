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

(* No-grad forward — same floating-point operation sequence as the Var
   path, no autodiff nodes. [`Fast] swaps the per-element
   transcendental only. One forward allocates each layer's buffers
   once, not per step: a step writes [x w] into [pre], adds [h u] and
   the bias in place, applies tanh in place and swaps [pre] with [h].
   Element for element that is [T.add_rv (T.add (T.matmul x w)
   (T.matmul h u)) b], then tanh. *)
type cell_ws = { mutable h : T.t; mutable pre : T.t; hu : T.t }

let cell_ws ~rows ~hidden =
  let z () = T.zeros ~rows ~cols:hidden in
  { h = z (); pre = z (); hu = z () }

let cell_step_t ~precision c ws x =
  let pre = ws.pre in
  T.matmul_into ~dst:pre x (Var.value c.w);
  T.matmul_into ~dst:ws.hu ws.h (Var.value c.u);
  T.add_inplace pre ws.hu;
  T.add_rv_inplace pre (Var.value c.b);
  let d = pre.T.data and off = pre.T.off and len = T.numel pre in
  (match precision with
  | `Exact ->
      (* A direct loop: [T.map] would box every element. *)
      for i = off to off + len - 1 do
        Bigarray.Array1.unsafe_set d i (Stdlib.tanh (Bigarray.Array1.unsafe_get d i))
      done
  | `Fast -> Pnc_tensor.Fast_math.apply_range d ~off ~len);
  ws.pre <- ws.h;
  ws.h <- pre

let forward_block ~precision m steps =
  let rows = T.rows steps.(0) in
  let l1 = cell_ws ~rows ~hidden:m.n_hidden and l2 = cell_ws ~rows ~hidden:m.n_hidden in
  Array.iter
    (fun x_t ->
      cell_step_t ~precision m.l1 l1 x_t;
      cell_step_t ~precision m.l2 l2 l1.h)
    steps;
  T.add_rv (T.matmul l2.h (Var.value m.w_out)) (Var.value m.b_out)

let forward_multi_batch_t ?(opts = Batch.default) m steps =
  assert (Array.length steps > 0);
  Batch.timed opts ~rows:(T.rows steps.(0)) (fun () ->
      forward_block ~precision:opts.precision m steps)

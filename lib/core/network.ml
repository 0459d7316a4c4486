module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var

type arch = Ptpnc | Adapt

let arch_name = function Ptpnc -> "pTPNC" | Adapt -> "ADAPT-pNC"

type layer = Crossbar.t * Filter_layer.t * Ptanh.t

type t = { arch : arch; n_in : int; n_hidden : int; n_classes : int; layers : layer list }

let create ?hidden rng arch ~inputs ~classes =
  let hidden =
    match hidden with Some h -> h | None -> ( match arch with Ptpnc -> 3 | Adapt -> 6)
  in
  let filter_order =
    match arch with Ptpnc -> Filter_layer.First | Adapt -> Filter_layer.Second
  in
  let layer ~n_in ~n_out =
    ( Crossbar.create rng ~inputs:n_in ~outputs:n_out,
      Filter_layer.create rng filter_order ~features:n_out,
      Ptanh.create rng ~features:n_out )
  in
  {
    arch;
    n_in = inputs;
    n_hidden = hidden;
    n_classes = classes;
    layers = [ layer ~n_in:inputs ~n_out:hidden; layer ~n_in:hidden ~n_out:classes ];
  }

let arch net = net.arch
let inputs net = net.n_in
let classes net = net.n_classes
let hidden net = net.n_hidden
let layers net = net.layers

let params net =
  List.concat_map
    (fun (cb, fl, act) -> Crossbar.params cb @ Filter_layer.params fl @ Ptanh.params act)
    net.layers

let named_params net =
  List.concat
    (List.mapi
       (fun i (cb, fl, act) ->
         let under prefix ps =
           List.map (fun (n, p) -> (Printf.sprintf "layer%d/%s/%s" i prefix n, p)) ps
         in
         under "crossbar" (Crossbar.named_params cb)
         @ under "filter" (Filter_layer.named_params fl)
         @ under "ptanh" (Ptanh.named_params act))
       net.layers)

let n_params net =
  List.fold_left (fun acc v -> acc + T.numel (Var.value v)) 0 (params net)

(* The draw each component family realizes with: the [varied] families
   take [draw], the others run nominal. *)
let family_draws (varied : Batch.families) draw =
  let pick on = if on then draw else Variation.deterministic in
  (pick varied.crossbar, pick varied.filter, pick varied.activation)

(* One sampled physical instance of a layer, shared across time steps:
   the variation-folded component values are realized once, only the
   input-dependent computation runs per step. *)
type layer_real = {
  cb : Crossbar.realization;
  filt : Filter_layer.realization;
  act : Ptanh.realization;
  mutable filt_state : Filter_layer.state;
}

let realize_layers ~varied ~draw ~batch net =
  let draw_crossbar, draw_filter, draw_act = family_draws varied draw in
  List.map
    (fun (cb, fl, act) ->
      (* Explicit sampling order — filters, activation, crossbar. The
         tensor path below must consume the draws' random streams in
         exactly this order for realization parity. *)
      let filt = Filter_layer.realize ~draw:draw_filter fl in
      let act = Ptanh.realize ~draw:draw_act act in
      let cb = Crossbar.realize ~draw:draw_crossbar cb in
      { cb; filt; act; filt_state = Filter_layer.init_state filt ~batch })
    net.layers

let step_layer lr x =
  let summed = Crossbar.apply lr.cb x in
  let state', filtered = Filter_layer.step lr.filt lr.filt_state summed in
  lr.filt_state <- state';
  Ptanh.apply lr.act filtered

let forward_multi ?(readout = Batch.Integrated) ?(varied = Batch.all_families) ~draw net steps =
  assert (Array.length steps > 0);
  let batch = T.rows steps.(0) in
  let reals = realize_layers ~varied ~draw ~batch net in
  (* Default read-out: the class scores integrate the output voltage
     over the window — physically one slow RC stage per output (counted
     by Hardware). Reading only the final instant (Last_step, kept for
     the ablation bench) forgets transient evidence faster than any
     printable RC can retain it. *)
  let acc = ref None in
  Array.iter
    (fun x_t ->
      let signal = ref (Var.const x_t) in
      List.iter (fun lr -> signal := step_layer lr !signal) reals;
      acc :=
        Some
          (match (readout, !acc) with
          | Batch.Last_step, _ | Integrated, None -> !signal
          | Integrated, Some a -> Var.add a !signal))
    steps;
  match (readout, !acc) with
  | Integrated, Some sum -> Var.scale (1. /. float_of_int (Array.length steps)) sum
  | Last_step, Some last -> last
  | _, None -> assert false

let forward ?readout ?varied ~draw net x = forward_multi ?readout ?varied ~draw net (T.columns x)

(* No-grad engine: same sampling order and same floating-point
   operation sequence as the Var path, but no autodiff nodes are
   allocated and each layer step runs as a few fused passes over
   preallocated feature-major buffers. Logits are bit-identical to
   [forward_multi] under the same draw and options.

   Realization (the RNG-consuming part) is separated from the per-block
   workspace (state + scratch buffers): the draw is realized ONCE per
   forward and the batch then runs a block of rows at a time, which
   is what makes the block size a pure performance knob — every block
   sees the same physical circuit instance, so results are
   bit-identical for any batch size.

   A realized layer is kept as raw coefficient views, extracted once
   per draw so the per-time-step loop touches plain tensors only. *)
type layer_kernel = {
  k_filt : Filter_layer.realization_t;
  k_theta : T.t;
  k_bias : T.t;
  k_inv : T.t;
  k_stages : (T.t * T.t) array;
  k_e1 : T.t;
  k_e2 : T.t;
  k_e3 : T.t;
  k_e4 : T.t;
}

let realize_net_t ~varied ~draw net =
  let draw_crossbar, draw_filter, draw_act = family_draws varied draw in
  List.map
    (fun (cb, fl, act) ->
      (* Same sampling order as the Var path: filters, activation,
         crossbar. *)
      let filt = Filter_layer.realize_t ~draw:draw_filter fl in
      let act = Ptanh.realize_t ~draw:draw_act act in
      let theta, bias, inv = Crossbar.kernel_t (Crossbar.realize_t ~draw:draw_crossbar cb) in
      let e1, e2, e3, e4 = Ptanh.kernel_t act in
      {
        k_filt = filt;
        k_theta = theta;
        k_bias = bias;
        k_inv = inv;
        k_stages = Filter_layer.kernel_t filt;
        k_e1 = e1;
        k_e2 = e2;
        k_e3 = e3;
        k_e4 = e4;
      })
    net.layers

(* Per-block workspace of one layer, stored feature-major
   ([features x rows], owned, offset 0): row [c] holds feature [c] for
   every row of the block, so each pass below is a unit-stride loop over
   the block's rows that reads the feature's coefficients once. *)
type layer_ws = {
  kern : layer_kernel;
  states : T.t array; (* one [n_out x rows] filter state per stage *)
  pre : T.t; (* crossbar sums, then the normalised filter input *)
  out : T.t; (* the layer's activations *)
}

(* The passes of the fused layer step. Each runs over the [rows]
   elements of one feature and evaluates exactly the per-element
   operation sequence of the unfused reference kernel it stands for
   (Crossbar.apply_batch_t, Filter_layer.step_batch_t,
   Ptanh.apply_batch_t), so the layout changes memory traffic only and
   `Exact results stay bit-identical to those kernels and to the Var
   path. Unchecked accesses are covered by the shape asserts in
   [forward_block] plus the tensor view invariant.

   Coefficients travel as (buffer, offset) and each pass reads its
   floats itself: without flambda, a float argument to a non-inlined
   function is boxed at every call. Every Bigarray parameter carries
   [T.buffer]; left unannotated, the kind and layout generalize and
   each access compiles to the generic [caml_ba_get_1] stub, which
   boxes the float it returns (scripts/check_unboxed.sh rejects that). *)

(* Crossbar sums of one output feature, as [T.matmul_into]: [k]
   ascending from [0.], exactly-zero inputs skipped. The [k = 0] loop
   writes [0. +. x * w] (or [0.]) directly, which is what a zero fill
   followed by the first accumulation computes, bit for bit. Input element
   [(r, k)] is [x.{xo + r * rs + k * ks}]; weight [k] is
   [th.{tho + k * n_out}]; [n_in >= 1]. *)
let crossbar_pass ~rows (d : T.buffer) doff (x : T.buffer) xo ~rs ~ks ~n_in (th : T.buffer) tho
    ~n_out =
  let module BA = Bigarray.Array1 in
  let w = BA.unsafe_get th tho in
  for r = 0 to rows - 1 do
    let xv = BA.unsafe_get x (xo + (r * rs)) in
    BA.unsafe_set d (doff + r) (if xv <> 0. then 0. +. (xv *. w) else 0.)
  done;
  for k = 1 to n_in - 1 do
    let w = BA.unsafe_get th (tho + (k * n_out)) and xk = xo + (k * ks) in
    for r = 0 to rows - 1 do
      let xv = BA.unsafe_get x (xk + (r * rs)) in
      if xv <> 0. then BA.unsafe_set d (doff + r) (BA.unsafe_get d (doff + r) +. (xv *. w))
    done
  done

(* Bias and normalisation, as [T.add_mul_rv_inplace]. *)
let normalise_pass ~rows (d : T.buffer) doff (bias : T.buffer) bo (inv : T.buffer) io =
  let module BA = Bigarray.Array1 in
  let b = BA.unsafe_get bias bo and s = BA.unsafe_get inv io in
  for r = 0 to rows - 1 do
    BA.unsafe_set d (doff + r) ((BA.unsafe_get d (doff + r) +. b) *. s)
  done

(* One RC stage fed by [v], as [T.affine_rv_into]: s <- s * a + v * b. *)
let stage_pass ~rows (s : T.buffer) soff (v : T.buffer) voff (a : T.buffer) ao (b : T.buffer) bo =
  let module BA = Bigarray.Array1 in
  let a = BA.unsafe_get a ao and b = BA.unsafe_get b bo in
  for r = 0 to rows - 1 do
    BA.unsafe_set s (soff + r)
      ((BA.unsafe_get s (soff + r) *. a) +. (BA.unsafe_get v (voff + r) *. b))
  done

(* Printable tanh of [v] into [o], as [Ptanh.apply_batch_t]: the scaled
   pre-activation (v + -e3) * e4, tanh, then the e2/e1 affine. `Fast
   runs the tanh as [Fast_math.apply_range] over the row (one unboxed
   in-module loop, <=1e-7 absolute error; see docs/BATCHING.md), so it
   takes three loops. `Exact needs only one: the unboxed [Stdlib.tanh]
   extern sits inside the same expression tree, bit-identical to the
   Var path. *)
let activation_pass ~fast ~rows (o : T.buffer) oo (v : T.buffer) voff (e1 : T.buffer) eo1
    (e2 : T.buffer) eo2 (e3 : T.buffer) eo3 (e4 : T.buffer) eo4 =
  let module BA = Bigarray.Array1 in
  let e1 = BA.unsafe_get e1 eo1
  and e2 = BA.unsafe_get e2 eo2
  and e3 = BA.unsafe_get e3 eo3
  and e4 = BA.unsafe_get e4 eo4 in
  if fast then begin
    for r = 0 to rows - 1 do
      BA.unsafe_set o (oo + r) ((BA.unsafe_get v (voff + r) +. -.e3) *. e4)
    done;
    Pnc_tensor.Fast_math.apply_range o ~off:oo ~len:rows;
    for r = 0 to rows - 1 do
      BA.unsafe_set o (oo + r) ((BA.unsafe_get o (oo + r) *. e2) +. e1)
    done
  end
  else
    for r = 0 to rows - 1 do
      BA.unsafe_set o (oo + r)
        ((Stdlib.tanh ((BA.unsafe_get v (voff + r) +. -.e3) *. e4) *. e2) +. e1)
    done

(* One time step of one layer: for each output feature, the crossbar,
   normalisation, filter-stage and activation passes in turn. The
   filter order is just the number of stages. Input element [(r, k)]
   is [x.{xo + r * rs + k * ks}]: the first layer reads its row-major
   [rows x n_in] step with [rs = n_in, ks = 1], later layers the
   previous feature-major activations with [rs = 1, ks = rows]. *)
let fused_step_layer ~fast ~rows lr (x : T.buffer) xo ~rs ~ks =
  let k = lr.kern in
  let n_in = T.rows k.k_theta and n_out = T.cols k.k_theta in
  let pd = lr.pre.T.data and od = lr.out.T.data in
  for c = 0 to n_out - 1 do
    let fo = c * rows in
    crossbar_pass ~rows pd fo x xo ~rs ~ks ~n_in k.k_theta.T.data (k.k_theta.T.off + c) ~n_out;
    normalise_pass ~rows pd fo k.k_bias.T.data (k.k_bias.T.off + c) k.k_inv.T.data
      (k.k_inv.T.off + c);
    let v = ref pd in
    for i = 0 to Array.length lr.states - 1 do
      let s = lr.states.(i).T.data and a, b = k.k_stages.(i) in
      stage_pass ~rows s fo !v fo a.T.data (a.T.off + c) b.T.data (b.T.off + c);
      v := s
    done;
    activation_pass ~fast ~rows od fo !v fo k.k_e1.T.data (k.k_e1.T.off + c) k.k_e2.T.data
      (k.k_e2.T.off + c) k.k_e3.T.data (k.k_e3.T.off + c) k.k_e4.T.data (k.k_e4.T.off + c)
  done

(* The batch input: one [rows x n_in] tensor per time step, or one
   [rows x steps] series tensor of a single-input circuit, whose step
   [t] is column [t]. *)
type input = Steps of T.t array | Series of T.t

let input_steps = function Steps steps -> Array.length steps | Series x -> T.cols x
let input_rows = function Steps steps -> T.rows steps.(0) | Series x -> T.rows x

(* Run rows [row, row + rows) of the batch through all time steps
   against an already realized circuit instance, from the full-batch
   row-major filter [states]. The block reads its rows of each step in
   place (a series at row stride [T.cols x]), transposes its state
   slice in once and its logits out once, and allocates nothing per
   time step. *)
let forward_block ~fast ~readout ~classes kernels states input ~row ~rows =
  let fm ~n = T.zeros ~rows:n ~cols:rows in
  let ws =
    Array.of_list
      (List.map2
         (fun kern st ->
           let n_out = T.cols kern.k_theta in
           List.iter
             (fun t -> assert (T.rows t = 1 && T.cols t = n_out))
             [ kern.k_bias; kern.k_inv; kern.k_e1; kern.k_e2; kern.k_e3; kern.k_e4 ];
           assert (Array.length st = Array.length kern.k_stages);
           Array.iter2
             (fun s (a, b) ->
               assert (T.cols s = n_out && T.cols a = n_out && T.cols b = n_out))
             st kern.k_stages;
           {
             kern;
             states = Array.map (fun s -> T.transpose (T.rows_view s ~row ~len:rows)) st;
             pre = fm ~n:n_out;
             out = fm ~n:n_out;
           })
         kernels states)
  in
  let n_layers = Array.length ws in
  for l = 1 to n_layers - 1 do
    assert (T.rows ws.(l).kern.k_theta = T.cols ws.(l - 1).kern.k_theta)
  done;
  let n_in = T.rows ws.(0).kern.k_theta and last = ws.(n_layers - 1).out in
  assert (T.rows last = classes);
  let acc = fm ~n:classes in
  let n_steps = input_steps input in
  (match input with Series _ -> assert (n_in = 1) | Steps _ -> ());
  for t = 0 to n_steps - 1 do
    (match input with
    | Steps steps ->
        let x = steps.(t) in
        assert (T.cols x = n_in && row >= 0 && row + rows <= T.rows x);
        fused_step_layer ~fast ~rows ws.(0) x.T.data (x.T.off + (row * n_in)) ~rs:n_in ~ks:1
    | Series x ->
        assert (row >= 0 && row + rows <= T.rows x);
        fused_step_layer ~fast ~rows ws.(0) x.T.data
          (x.T.off + (row * n_steps) + t)
          ~rs:n_steps ~ks:1);
    for l = 1 to n_layers - 1 do
      fused_step_layer ~fast ~rows ws.(l) ws.(l - 1).out.T.data 0 ~rs:1 ~ks:rows
    done;
    match readout with Batch.Integrated -> T.add_inplace acc last | Last_step -> ()
  done;
  match readout with
  | Integrated -> T.transpose (T.scale (1. /. float_of_int n_steps) acc)
  | Last_step -> T.transpose last

let forward_input ~(opts : Batch.opts) ~draw net input =
  assert (input_steps input > 0);
  let rows = input_rows input in
  let kernels = realize_net_t ~varied:opts.varied ~draw net in
  (* Like the draw, the initial state describes the physical situation,
     not the evaluation schedule: it is drawn once for the full batch
     and each block gets its row slice, so [`Gaussian] states stay
     block-size invariant. *)
  let states =
    List.map
      (fun k -> Filter_layer.init_state_t ~init:opts.state_init k.k_filt ~batch:rows)
      kernels
  in
  let fast = match opts.precision with `Fast -> true | `Exact -> false in
  Batch.blocked opts ~rows ~cols:net.n_classes (fun ~row ~len ->
      forward_block ~fast ~readout:opts.readout ~classes:net.n_classes kernels states input ~row
        ~rows:len)

let forward_multi_batch_t ?(opts = Batch.default) ~draw net steps =
  forward_input ~opts ~draw net (Steps steps)

let forward_batch_t ?(opts = Batch.default) ~draw net x = forward_input ~opts ~draw net (Series x)

let clamp net =
  List.iter
    (fun (cb, fl, act) ->
      Crossbar.clamp cb;
      Filter_layer.clamp fl;
      Ptanh.clamp act)
    net.layers

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
   allocated and each layer step runs as one fused pass over
   preallocated buffers. Logits are bit-identical to [forward_multi]
   under the same draw and options.

   Realization (the RNG-consuming part) is separated from the per-block
   workspace (state + scratch buffers): the draw is realized ONCE per
   forward and the batch then runs through zero-copy row views, which
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

type layer_ws = {
  kern : layer_kernel;
  filt_state_t : Filter_layer.state_t;
  cb_out : T.t;
  act_out : T.t;
}

(* Fused layer step for the no-grad path: after the crossbar matmul,
   one elementwise pass applies bias + normalization, the RC filter
   stage update(s) and the printable-tanh activation. Every one of
   those kernels is elementwise over the same [batch x features] block
   with no cross-element reduction, and the fused loop evaluates the
   exact per-element operation sequence of the unfused reference
   kernels (Crossbar.apply_batch_t; Filter_layer.step_batch_t;
   Ptanh.apply_batch_t) — so fusing the passes changes memory traffic
   only, never a result bit. Unchecked accesses are covered by the
   shape asserts plus the tensor view invariant. Specialized for the
   two printable filter orders.

   [~fast] selects the activation implementation: [false] is
   [Stdlib.tanh] (bit-identical to the Var path), [true] is
   [Fast_math.tanh] (≤1e-7 absolute tanh error; see docs/BATCHING.md).
   Nothing else in the element sequence changes between the tiers. *)
(* Activation pass over one row whose elements already hold the scaled
   pre-activations: tanh in place, then the eta2/eta1 affine. Two entry
   points for the transcendental — `Fast runs [Fast_math.apply_range]
   (one unboxed in-module loop; a per-element cross-module call would
   box both floats without flambda and cost more than the polynomial
   saves), `Exact the direct unboxed [Stdlib.tanh] extern. The
   per-element expression tree is identical to the former single-pass
   form, so `Exact results stay bit-for-bit unchanged.

   Every Bigarray parameter carries [T.buffer]: left unannotated, the
   kind and layout generalize, and without flambda each [unsafe_get]
   then compiles to the generic [caml_ba_get_1] C stub, which boxes the
   float it returns (scripts/check_unboxed.sh rejects that). *)
let activation_rows ~fast (od : T.buffer) ~off ~cols (e2 : T.buffer) eo2 (e1 : T.buffer) eo1 =
  let module BA = Bigarray.Array1 in
  if fast then Pnc_tensor.Fast_math.apply_range od ~off ~len:cols
  else
    for c = 0 to cols - 1 do
      BA.unsafe_set od (off + c) (Stdlib.tanh (BA.unsafe_get od (off + c)))
    done;
  for c = 0 to cols - 1 do
    BA.unsafe_set od (off + c)
      ((BA.unsafe_get od (off + c) *. BA.unsafe_get e2 (eo2 + c))
      +. BA.unsafe_get e1 (eo1 + c))
  done

let fused_step_layer ~fast lr x =
  let module BA = Bigarray.Array1 in
  let k = lr.kern in
  let mm = lr.cb_out and out = lr.act_out in
  let rows = T.rows mm and cols = T.cols mm in
  assert (T.cols k.k_bias = cols && T.cols k.k_inv = cols && T.cols k.k_e1 = cols);
  let md = mm.T.data and od = out.T.data in
  let bd = k.k_bias.T.data and bo = k.k_bias.T.off in
  let id = k.k_inv.T.data and io = k.k_inv.T.off in
  let e1 = k.k_e1.T.data and eo1 = k.k_e1.T.off in
  let e2 = k.k_e2.T.data and eo2 = k.k_e2.T.off in
  let e3 = k.k_e3.T.data and eo3 = k.k_e3.T.off in
  let e4 = k.k_e4.T.data and eo4 = k.k_e4.T.off in
  match (lr.filt_state_t, k.k_stages) with
  | [| s1; s2 |], [| (a1, b1); (a2, b2) |] ->
      T.matmul_into ~dst:mm x k.k_theta;
      assert (T.same_shape s1 mm && T.same_shape s2 mm);
      assert (T.cols a1 = cols && T.cols b1 = cols && T.cols a2 = cols && T.cols b2 = cols);
      let s1d = s1.T.data and s2d = s2.T.data in
      let a1d = a1.T.data and a1o = a1.T.off in
      let b1d = b1.T.data and b1o = b1.T.off in
      let a2d = a2.T.data and a2o = a2.T.off in
      let b2d = b2.T.data and b2o = b2.T.off in
      for r = 0 to rows - 1 do
        let mo = mm.T.off + (r * cols)
        and oo = out.T.off + (r * cols)
        and s1o = s1.T.off + (r * cols)
        and s2o = s2.T.off + (r * cols) in
        for c = 0 to cols - 1 do
          let v =
            (BA.unsafe_get md (mo + c) +. BA.unsafe_get bd (bo + c))
            *. BA.unsafe_get id (io + c)
          in
          let s1v =
            (BA.unsafe_get s1d (s1o + c) *. BA.unsafe_get a1d (a1o + c))
            +. (v *. BA.unsafe_get b1d (b1o + c))
          in
          BA.unsafe_set s1d (s1o + c) s1v;
          let s2v =
            (BA.unsafe_get s2d (s2o + c) *. BA.unsafe_get a2d (a2o + c))
            +. (s1v *. BA.unsafe_get b2d (b2o + c))
          in
          BA.unsafe_set s2d (s2o + c) s2v;
          BA.unsafe_set od (oo + c)
            ((s2v +. -.BA.unsafe_get e3 (eo3 + c)) *. BA.unsafe_get e4 (eo4 + c))
        done;
        activation_rows ~fast od ~off:oo ~cols e2 eo2 e1 eo1
      done;
      out
  | [| s1 |], [| (a1, b1) |] ->
      T.matmul_into ~dst:mm x k.k_theta;
      assert (T.same_shape s1 mm);
      assert (T.cols a1 = cols && T.cols b1 = cols);
      let s1d = s1.T.data in
      let a1d = a1.T.data and a1o = a1.T.off in
      let b1d = b1.T.data and b1o = b1.T.off in
      for r = 0 to rows - 1 do
        let mo = mm.T.off + (r * cols)
        and oo = out.T.off + (r * cols)
        and s1o = s1.T.off + (r * cols) in
        for c = 0 to cols - 1 do
          let v =
            (BA.unsafe_get md (mo + c) +. BA.unsafe_get bd (bo + c))
            *. BA.unsafe_get id (io + c)
          in
          let s1v =
            (BA.unsafe_get s1d (s1o + c) *. BA.unsafe_get a1d (a1o + c))
            +. (v *. BA.unsafe_get b1d (b1o + c))
          in
          BA.unsafe_set s1d (s1o + c) s1v;
          BA.unsafe_set od (oo + c)
            ((s1v +. -.BA.unsafe_get e3 (eo3 + c)) *. BA.unsafe_get e4 (eo4 + c))
        done;
        activation_rows ~fast od ~off:oo ~cols e2 eo2 e1 eo1
      done;
      out
  | _ -> assert false (* Filter_layer.order has exactly two constructors *)

(* Run one block of rows through all time steps against an already
   realized circuit instance, from the block's filter [states]. *)
let forward_block ~fast ~readout ~classes kernels states steps =
  let batch = T.rows steps.(0) in
  let ws =
    List.map2
      (fun kern filt_state_t ->
        let n_out = T.cols kern.k_bias in
        {
          kern;
          filt_state_t;
          cb_out = T.zeros ~rows:batch ~cols:n_out;
          act_out = T.zeros ~rows:batch ~cols:n_out;
        })
      kernels states
  in
  let acc = T.zeros ~rows:batch ~cols:classes in
  let last = ref acc in
  Array.iter
    (fun x_t ->
      let signal = ref x_t in
      List.iter (fun lr -> signal := fused_step_layer ~fast lr !signal) ws;
      (match readout with
      | Batch.Integrated -> T.add_inplace acc !signal
      | Last_step -> ());
      last := !signal)
    steps;
  match readout with
  | Integrated -> T.scale (1. /. float_of_int (Array.length steps)) acc
  | Last_step -> T.copy !last

let forward_multi_batch_t ?(opts = Batch.default) ~draw net steps =
  assert (Array.length steps > 0);
  let rows = T.rows steps.(0) in
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
      let view s = T.rows_view s ~row ~len in
      forward_block ~fast ~readout:opts.readout ~classes:net.n_classes kernels
        (List.map (Array.map view) states)
        (Array.map view steps))

let forward_batch_t ?opts ~draw net x = forward_multi_batch_t ?opts ~draw net (T.columns x)

let clamp net =
  List.iter
    (fun (cb, fl, act) ->
      Crossbar.clamp cb;
      Filter_layer.clamp fl;
      Ptanh.clamp act)
    net.layers

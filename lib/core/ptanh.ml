module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng

type t = { n : int; eta1 : Var.t; eta2 : Var.t; eta3 : Var.t; eta4 : Var.t }

let create rng ~features =
  assert (features > 0);
  let row lo hi = Var.param (T.init ~rows:1 ~cols:features (fun _ _ -> Rng.uniform rng ~lo ~hi)) in
  {
    n = features;
    eta1 = row (-0.1) 0.1;
    eta2 = row 0.7 1.0;
    eta3 = row (-0.1) 0.1;
    eta4 = row 1.5 3.0;
  }

let features a = a.n
let params a = [ a.eta1; a.eta2; a.eta3; a.eta4 ]

let named_params a =
  [ ("eta1", a.eta1); ("eta2", a.eta2); ("eta3", a.eta3); ("eta4", a.eta4) ]

(* Effective (variation-folded) eta rows are constant over a sequence;
   realize them once per forward pass. [realize_t] is the one place an
   activation samples its draw. *)
type realization_t = { eps : T.t array; eta : T.t array }

let realize_t ~draw a =
  let eps = Array.init 4 (fun _ -> Variation.eps_for draw ~rows:1 ~cols:a.n) in
  { eps; eta = Array.mapi (fun i v -> T.mul (Var.value v) eps.(i)) (Array.of_list (params a)) }

type realization = { e1 : Var.t; e2 : Var.t; e3 : Var.t; e4 : Var.t }

let realize ~ste a (r : realization_t) =
  let e i v = if ste then Var.ste_mul v r.eps.(i) else Var.mul v (Var.const r.eps.(i)) in
  { e1 = e 0 a.eta1; e2 = e 1 a.eta2; e3 = e 2 a.eta3; e4 = e 3 a.eta4 }

let apply real x =
  let scaled = Var.mul_rv (Var.sub_rv x real.e3) real.e4 in
  Var.add_rv (Var.mul_rv (Var.tanh scaled) real.e2) real.e1

let forward ~draw a x = apply (realize ~ste:draw.Variation.ste a (realize_t ~draw a)) x

let apply_batch_t ?(precision = `Exact) real x =
  assert (T.cols x = T.cols real.eta.(0));
  let dst = T.zeros ~rows:(T.rows x) ~cols:(T.cols x) in
  let fast = match precision with `Fast -> true | `Exact -> false in
  let cols = T.cols x in
  let module BA = Bigarray.Array1 in
  let xd = x.T.data and od = dst.T.data in
  let e1 = real.eta.(0).T.data
  and e2 = real.eta.(1).T.data
  and e3 = real.eta.(2).T.data
  and e4 = real.eta.(3).T.data in
  let eo1 = real.eta.(0).T.off
  and eo2 = real.eta.(1).T.off
  and eo3 = real.eta.(2).T.off
  and eo4 = real.eta.(3).T.off in
  for r = 0 to T.rows x - 1 do
    let xo = x.T.off + (r * cols) and oo = dst.T.off + (r * cols) in
    for c = 0 to cols - 1 do
      (* Fused η₁ + η₂·tanh((x − η₃)·η₄) with the exact elementwise
         operation sequence of [apply] (sub_rv is add of the negation),
         so results stay bit-identical to the Var path under [`Exact].
         [`Fast] substitutes the bounded approximation for the single
         transcendental — everything around it is unchanged, so the
         logit deviation is |η₂|·(tanh error) ≤ 1e-7 per element.
         Unchecked accesses: the shape assert above plus the view
         invariant make every index in bounds. *)
      BA.unsafe_set od (oo + c)
        ((BA.unsafe_get xd (xo + c) +. -.BA.unsafe_get e3 (eo3 + c))
        *. BA.unsafe_get e4 (eo4 + c))
    done;
    (* Activation pass over the row ([dst] holds the scaled
       pre-activations): `Fast runs one unboxed in-module loop, `Exact
       the direct unboxed extern — a per-element cross-module call
       would box both floats without flambda. The per-element
       expression tree matches the former single-pass form, so `Exact
       stays bit-identical. *)
    if fast then Pnc_tensor.Fast_math.apply_range od ~off:oo ~len:cols
    else
      for c = 0 to cols - 1 do
        BA.unsafe_set od (oo + c) (Stdlib.tanh (BA.unsafe_get od (oo + c)))
      done;
    for c = 0 to cols - 1 do
      BA.unsafe_set od (oo + c)
        ((BA.unsafe_get od (oo + c) *. BA.unsafe_get e2 (eo2 + c))
        +. BA.unsafe_get e1 (eo1 + c))
    done
  done;
  dst

let eta_values a = Array.map (fun v -> T.copy (Var.value v)) [| a.eta1; a.eta2; a.eta3; a.eta4 |]

let clamp a =
  let project v ~lo ~hi =
    let t = Var.value v in
    for c = 0 to T.cols t - 1 do
      T.set t 0 c (Float.max lo (Float.min hi (T.get t 0 c)))
    done
  in
  project a.eta1 ~lo:(-1.) ~hi:1.;
  project a.eta2 ~lo:0.2 ~hi:1.;
  project a.eta3 ~lo:(-1.) ~hi:1.;
  project a.eta4 ~lo:0.5 ~hi:6.

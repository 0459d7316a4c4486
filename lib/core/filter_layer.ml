module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng

type order = First | Second

type stage = { r_norm : Var.t; c_norm : Var.t } (* each 1 x features *)

type t = { order : order; n : int; stages : stage array }

let tau_max = Printed.filter_r_max *. Printed.filter_c_max

let create rng order ~features =
  assert (features > 0);
  let mk_stage () =
    let row () =
      Var.param (T.init ~rows:1 ~cols:features (fun _ _ -> Rng.uniform rng ~lo:0.3 ~hi:0.9))
    in
    { r_norm = row (); c_norm = row () }
  in
  let n_stages = match order with First -> 1 | Second -> 2 in
  { order; n = features; stages = Array.init n_stages (fun _ -> mk_stage ()) }

let order f = f.order
let features f = f.n

let params f =
  Array.to_list f.stages |> List.concat_map (fun s -> [ s.r_norm; s.c_norm ])

let named_params f =
  List.concat
    (List.mapi
       (fun i s ->
         [
           (Printf.sprintf "stage%d/r_norm" i, s.r_norm);
           (Printf.sprintf "stage%d/c_norm" i, s.c_norm);
         ])
       (Array.to_list f.stages))

(* One physical sample of the filter bank. [realize_t] is the one place
   a filter bank samples its draw: per stage ε_R, ε_C, µ, then V₀. The
   record keeps the factors, the SPICE-characterized drift multipliers
   on R (temperature) and C (aging) and the intermediate values of
   a = τ/(µτ + Δt), b = Δt/(µτ + Δt); the per-op graph, the fused
   kernel in [Network] and the adjoint sweep read it. A multiplier is
   exactly 1. when the spec has no drift point, in which case the
   scaling is skipped entirely so the realization stays bit-identical
   to the drift-free model. *)
type stage_t = {
  eps_r : T.t;
  eps_c : T.t;
  mu : T.t;
  v0 : T.t;
  r_eff : T.t;
  c_eff : T.t;
  den : T.t;
  a : T.t;
  b : T.t;
}

type realization_t = { r_mult : float; c_mult : float; stages_t : stage_t array }

let realize_t ~draw f =
  let rm = Variation.drift_r_mult draw and cm = Variation.drift_c_mult draw in
  let drift m t = if m = 1. then t else T.scale m t in
  let realize_stage (s : stage) =
    let eps_r = Variation.eps_for draw ~rows:1 ~cols:f.n in
    let eps_c = Variation.eps_for draw ~rows:1 ~cols:f.n in
    let mu = Variation.mu_for draw ~cols:f.n in
    let v0 = Variation.v0_for draw ~cols:f.n in
    let r_eff = drift rm (T.mul (Var.value s.r_norm) eps_r) in
    let c_eff = drift cm (T.mul (Var.value s.c_norm) eps_c) in
    let tau = T.scale tau_max (T.mul r_eff c_eff) in
    let den = T.add_scalar Printed.dt (T.mul mu tau) in
    let a = T.div tau den and b = T.div (T.create ~rows:1 ~cols:f.n Printed.dt) den in
    { eps_r; eps_c; mu; v0; r_eff; c_eff; den; a; b }
  in
  { r_mult = rm; c_mult = cm; stages_t = Array.map realize_stage f.stages }

(* The per-op graph of a realization: each stage's (a, b) nodes, with
   the same floating-point operation sequence as [realize_t]. *)
type realization = { nodes : (Var.t * Var.t) array; sampled : realization_t }

let realize ~ste f (r : realization_t) =
  let drift m v = if m = 1. then v else Var.scale m v in
  let fold v e = if ste then Var.ste_mul v e else Var.mul v (Var.const e) in
  let realize_stage (s : stage) (st : stage_t) =
    let r_eff = drift r.r_mult (fold s.r_norm st.eps_r) in
    let c_eff = drift r.c_mult (fold s.c_norm st.eps_c) in
    let tau = Var.scale tau_max (Var.mul r_eff c_eff) in
    let den = Var.add_scalar Printed.dt (Var.mul (Var.const st.mu) tau) in
    let a = Var.div tau den in
    let b = Var.div (Var.const (T.create ~rows:1 ~cols:f.n Printed.dt)) den in
    (a, b)
  in
  { nodes = Array.map2 realize_stage f.stages r.stages_t; sampled = r }

type state = Var.t array (* one [batch x features] node per stage *)

let init_state real ~batch =
  Array.map
    (fun st -> Var.const (T.init ~rows:batch ~cols:(T.cols st.v0) (fun _ c -> T.get st.v0 0 c)))
    real.sampled.stages_t

let step real (st : state) x =
  let x_in = ref x in
  let st' =
    Array.mapi
      (fun i s ->
        let a, b = real.nodes.(i) in
        let s' = Var.affine_rv s a !x_in b in
        x_in := s';
        s')
      st
  in
  (st', !x_in)

type state_t = T.t array

type state_init = [ `V0 | `Zero | `Gaussian of Rng.t * float ]

(* Refill an existing state in place. `V0 broadcasts the draw's sampled
   initial voltages down every batch row (the historical [init_state_t]
   convention); `Zero is the fully-settled circuit; `Gaussian draws a
   fresh V[0] per (row, channel) — the sliding-window regime of the
   exemplar LearnableFilter, where each window meets the filter bank
   mid-transient. The gaussian stream is consumed stage-major then
   row-major, so a full-batch reset followed by row-sliced views is
   bit-identical to resetting the full batch directly. *)
let reset_state_t ?(init = `V0) real (st : state_t) =
  Array.iteri
    (fun i s ->
      let v0 = real.stages_t.(i).v0 in
      match init with
      | `V0 ->
          for r = 0 to T.rows s - 1 do
            for c = 0 to T.cols s - 1 do
              T.set s r c (T.get v0 0 c)
            done
          done
      | `Zero -> T.fill s 0.
      | `Gaussian (rng, sigma) ->
          for r = 0 to T.rows s - 1 do
            for c = 0 to T.cols s - 1 do
              T.set s r c (Rng.gaussian ~sigma rng)
            done
          done)
    st

let init_state_t ?(init = `V0) real ~batch =
  let st =
    Array.map (fun st -> T.zeros ~rows:batch ~cols:(T.cols st.v0)) real.stages_t
  in
  reset_state_t ~init real st;
  st

let step_batch_t real (st : state_t) x =
  let x_in = ref x in
  Array.iteri
    (fun i s ->
      let sr = real.stages_t.(i) in
      T.affine_rv_into ~dst:s s sr.a !x_in sr.b;
      x_in := s)
    st;
  !x_in

let r_values f =
  Array.map
    (fun s -> Array.map (fun x -> x *. Printed.filter_r_max) (T.row (Var.value s.r_norm) 0))
    f.stages

let c_values f =
  Array.map
    (fun s -> Array.map (fun x -> x *. Printed.filter_c_max) (T.row (Var.value s.c_norm) 0))
    f.stages

let cutoff_hz f =
  let rs = r_values f and cs = c_values f in
  Array.init f.n (fun ch ->
      match f.order with
      | First -> Pnc_signal.Filter.cutoff_hz { Pnc_signal.Filter.r = rs.(0).(ch); c = cs.(0).(ch) }
      | Second ->
          Pnc_signal.Filter.cutoff_2nd_hz
            {
              Pnc_signal.Filter.stage1 = { Pnc_signal.Filter.r = rs.(0).(ch); c = cs.(0).(ch) };
              stage2 = { Pnc_signal.Filter.r = rs.(1).(ch); c = cs.(1).(ch) };
            })

let clamp f =
  let lo_r = Printed.filter_r_min /. Printed.filter_r_max in
  let lo_c = Printed.filter_c_min /. Printed.filter_c_max in
  let project v ~lo =
    let t = Var.value v in
    for c = 0 to T.cols t - 1 do
      T.set t 0 c (Float.max lo (Float.min 1. (T.get t 0 c)))
    done
  in
  Array.iter
    (fun s ->
      project s.r_norm ~lo:lo_r;
      project s.c_norm ~lo:lo_c)
    f.stages

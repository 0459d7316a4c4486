(* Correlated-variation battery (docs/VARIATION.md).

   Three layers of pinning:

   - unit: the Cholesky factorization (exact small cases, reconstruction,
     the PSD jitter fallback and its indefinite failure mode);
   - differential: degenerate correlation specs (corr absent, rho = 0,
     level = 0) must be *bit-identical* to the pre-correlation i.i.d.
     sampler — same RNG consumption, same float operations — all the way
     up through the Monte-Carlo estimators;
   - statistical: sampled eps fields must actually exhibit the kernel
     covariance and the N(1, (level/2)^2) marginals the model promises,
     and the whitened antithetic mirror must cancel linear structure.

   Battery sensitivity: with an intentionally transposed read of the
   whitened field in [sample_eps_corr] (w.((c * rows) + r) instead of
   w.((r * cols) + c)), the "sample covariance matches kernel" and
   "mirror pair" statistical tests below fail while everything i.i.d.
   stays green — i.e. the suite localizes covariance-indexing bugs. The
   bug was injected, observed to fail, and reverted.

   VARIATION=corr (the CI axis; declared in test/dune) re-runs the
   statistical suite at a second, high-correlation operating point. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Linalg = Pnc_util.Linalg
module Variation = Pnc_core.Variation
module Network = Pnc_core.Network
module Model = Pnc_core.Model
module Mc_loss = Pnc_core.Mc_loss
module Train = Pnc_core.Train
module Config = Pnc_exp.Config

let high_corr_axis = Sys.getenv_opt "VARIATION" = Some "corr"

(* The statistical operating point: the default mirrors the library
   default; the CI axis pushes correlation close to its admissible
   ceiling where Cholesky conditioning and clamping are most stressed. *)
let stat_rho = if high_corr_axis then 0.85 else 0.6
let stat_clen = if high_corr_axis then 3.0 else 1.5

(* Cholesky ------------------------------------------------------------- *)

let check_close ~eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.12g vs %.12g)" msg a b) true
    (Float.abs (a -. b) <= eps)

let test_cholesky_identity () =
  let n = 5 in
  let id = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.)) in
  match Linalg.cholesky id with
  | None -> Alcotest.fail "identity must factor"
  | Some l ->
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          check_close ~eps:0. (Printf.sprintf "L[%d][%d]" i j) l.(i).(j)
            (if i = j then 1. else 0.)
        done
      done

let test_cholesky_known () =
  (* [[4,2],[2,3]] = LL^T with L = [[2,0],[1,sqrt 2]]. *)
  match Linalg.cholesky [| [| 4.; 2. |]; [| 2.; 3. |] |] with
  | None -> Alcotest.fail "SPD 2x2 must factor"
  | Some l ->
      check_close ~eps:1e-15 "L00" l.(0).(0) 2.;
      check_close ~eps:1e-15 "L01" l.(0).(1) 0.;
      check_close ~eps:1e-15 "L10" l.(1).(0) 1.;
      check_close ~eps:1e-15 "L11" l.(1).(1) (sqrt 2.)

let test_cholesky_indefinite_none () =
  (* Eigenvalues 3 and -1: not PSD, the plain factorization must refuse
     rather than produce NaNs. *)
  match Linalg.cholesky [| [| 1.; 2. |]; [| 2.; 1. |] |] with
  | None -> ()
  | Some _ -> Alcotest.fail "indefinite matrix must not factor"

(* The kernel covariance of the sampler, built exactly as
   [Variation.chol_factor] builds it. *)
let kernel_sigma ~rho ~clen ~rows ~cols =
  let n = rows * cols in
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then 1.
          else
            let dr = float_of_int ((i / cols) - (j / cols))
            and dc = float_of_int ((i mod cols) - (j mod cols)) in
            rho *. exp (-.sqrt ((dr *. dr) +. (dc *. dc)) /. clen)))

let test_cholesky_reconstructs_kernel () =
  Qgen.check ~count:40 ~name:"LL^T = Sigma for kernel covariances"
    ~pp:(fun (rho, clen, (rows, cols)) ->
      Printf.sprintf "rho=%.3f clen=%.3f shape=%dx%d" rho clen rows cols)
    (Qgen.triple
       (Qgen.float_range 0. 0.95)
       (Qgen.float_range 0.5 4.)
       (Qgen.pair (Qgen.int_range 1 4) (Qgen.int_range 1 5)))
    (fun (rho, clen, (rows, cols)) ->
      let sigma = kernel_sigma ~rho ~clen ~rows ~cols in
      let n = rows * cols in
      match Linalg.cholesky sigma with
      | None -> false
      | Some l ->
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let s = ref 0. in
              for k = 0 to n - 1 do
                s := !s +. (l.(i).(k) *. l.(j).(k))
              done;
              if Float.abs (!s -. sigma.(i).(j)) > 1e-10 then ok := false
            done
          done;
          !ok)

let test_cholesky_psd_jitter_fallback () =
  (* The all-ones matrix is PSD but singular (rank 1): the strict
     factorization hits a zero pivot, the PSD wrapper must recover with
     a small recorded diagonal jitter. *)
  let ones = Array.make_matrix 3 3 1. in
  (match Linalg.cholesky ones with
  | Some _ -> Alcotest.fail "singular PSD must fail the strict factorization"
  | None -> ());
  let l, jitter = Linalg.cholesky_psd ones in
  Alcotest.(check bool) "jitter recorded" true (jitter > 0.);
  Alcotest.(check bool) "jitter small" true (jitter < 1e-6);
  Array.iter
    (Array.iter (fun x -> Alcotest.(check bool) "finite factor" true (Float.is_finite x)))
    l;
  (* Reconstruction within the jitter's own magnitude. *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      let s = ref 0. in
      for k = 0 to 2 do
        s := !s +. (l.(i).(k) *. l.(j).(k))
      done;
      check_close ~eps:(2. *. jitter) (Printf.sprintf "Sigma[%d][%d]" i j) !s 1.
    done
  done

let test_cholesky_psd_indefinite_raises () =
  (* Jitter is bounded; a genuinely indefinite matrix must raise, not
     silently return a wrong factor. *)
  match Linalg.cholesky_psd [| [| 1.; 2. |]; [| 2.; 1. |] |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "indefinite matrix must raise through the PSD wrapper"

let test_mat_vec_lower () =
  Qgen.check ~count:50 ~name:"mat_vec_lower = dense lower-triangular product"
    ~pp:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    (Qgen.pair (Qgen.int_range 1 8) (Qgen.int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let l =
        Array.init n (fun i ->
            Array.init n (fun j -> if j > i then 0. else Rng.uniform rng ~lo:(-1.) ~hi:1.))
      in
      let z = Array.init n (fun _ -> Rng.gaussian rng) in
      let got = Linalg.mat_vec_lower l z in
      let ok = ref true in
      for i = 0 to n - 1 do
        let s = ref 0. in
        for j = 0 to n - 1 do
          s := !s +. (l.(i).(j) *. z.(j))
        done;
        if Float.abs (got.(i) -. !s) > 1e-12 then ok := false
      done;
      !ok)

(* Degeneracy: corr = 0 is bit-identical to the i.i.d. path ------------- *)

let tensors_bit_equal a b =
  T.rows a = T.rows b && T.cols a = T.cols b
  &&
  let ok = ref true in
  for r = 0 to T.rows a - 1 do
    for c = 0 to T.cols a - 1 do
      (* Structural float equality: bit-identity is the contract. *)
      if not (T.get a r c = T.get b r c) then ok := false
    done
  done;
  !ok

let zero_rho spec = { spec with Variation.corr = Some { Variation.default_corr with rho = 0. } }

let test_eps0_draw_degeneracy () =
  Qgen.check ~count:60 ~name:"rho=0 draws bit-identical to i.i.d. draws"
    ~pp:(fun ((seed, dist), (rows, cols)) ->
      Printf.sprintf "seed=%d dist=%d shape=%dx%d" seed dist rows cols)
    (Qgen.pair
       (Qgen.pair (Qgen.int_range 0 100_000) (Qgen.int_range 0 2))
       (Qgen.pair (Qgen.int_range 1 4) (Qgen.int_range 1 6)))
    (fun ((seed, dist), (rows, cols)) ->
      let base =
        match dist with
        | 0 -> Variation.uniform 0.1
        | 1 -> Variation.gaussian 0.1
        | _ -> Variation.default_gmm 0.1
      in
      let d_iid = Variation.make_draw (Rng.create ~seed) base in
      let d_corr0 = Variation.make_draw (Rng.create ~seed) (zero_rho base) in
      tensors_bit_equal
        (Variation.eps_for d_iid ~rows ~cols)
        (Variation.eps_for d_corr0 ~rows ~cols)
      && tensors_bit_equal (Variation.mu_for d_iid ~cols) (Variation.mu_for d_corr0 ~cols)
      && tensors_bit_equal (Variation.v0_for d_iid ~cols) (Variation.v0_for d_corr0 ~cols))

let test_eps0_level0_degeneracy () =
  (* level = 0 with a live correlation spec: still all-ones, still no
     stream consumption difference. *)
  let spec =
    Variation.correlated ~rho:0.7 ~clen:1.0 { Variation.none with Variation.level = 0. }
  in
  Alcotest.(check bool) "corr inactive at level 0" false (Variation.corr_active spec);
  let d = Variation.make_draw (Rng.create ~seed:5) spec in
  let e = Variation.eps_for d ~rows:3 ~cols:4 in
  for r = 0 to 2 do
    for c = 0 to 3 do
      check_close ~eps:0. "eps = 1" (T.get e r c) 1.
    done
  done

let test_corr_active () =
  let base = Variation.uniform 0.1 in
  Alcotest.(check bool) "plain spec inactive" false (Variation.corr_active base);
  Alcotest.(check bool) "rho=0 inactive" false (Variation.corr_active (zero_rho base));
  Alcotest.(check bool) "default corr active" true
    (Variation.corr_active (Variation.correlated base));
  Alcotest.(check bool) "level 0 inactive" false
    (Variation.corr_active (Variation.correlated Variation.none))

let tiny_model ~seed =
  Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed) Network.Adapt ~inputs:1 ~classes:2)

let tiny_xy ~seed =
  let rng = Rng.create ~seed in
  let rows = Array.init 6 (fun _ -> Array.init 10 (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.)) in
  let labels = Array.init 6 (fun i -> i mod 2) in
  (rows, labels)

let test_eps0_estimator_degeneracy () =
  (* The whole estimator stack: expected_value and
     accuracy_under_variation over a rho=0 spec must equal — float
     structural equality, not approximate — the plain i.i.d. runs. *)
  let model = tiny_model ~seed:21 in
  let rows, labels = tiny_xy ~seed:22 in
  let x = T.of_rows rows in
  let spec = Variation.uniform 0.1 in
  let v_iid =
    Mc_loss.expected_value ~rng:(Rng.create ~seed:23) ~spec ~n:4 model ~x ~labels
  in
  let v_corr0 =
    Mc_loss.expected_value ~rng:(Rng.create ~seed:23) ~spec:(zero_rho spec) ~n:4 model ~x
      ~labels
  in
  Alcotest.(check bool)
    (Printf.sprintf "expected_value bit-equal (%.17g vs %.17g)" v_iid v_corr0)
    true (v_iid = v_corr0);
  let d = { Pnc_data.Dataset.name = "tiny"; x = rows; y = labels; n_classes = 2 } in
  let a_iid =
    Train.accuracy_under_variation ~rng:(Rng.create ~seed:24) ~spec ~draws:3 model d
  in
  let a_corr0 =
    Train.accuracy_under_variation ~rng:(Rng.create ~seed:24) ~spec:(zero_rho spec) ~draws:3
      model d
  in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy bit-equal (%.17g vs %.17g)" a_iid a_corr0)
    true (a_iid = a_corr0)

let test_fingerprint_append_only () =
  let cfg = Config.of_scale Config.Smoke in
  let fp = Config.fingerprint cfg in
  let has_sub sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no corr marker by default" false (has_sub "corr(" fp);
  Alcotest.(check bool) "no ni marker by default" false (has_sub ";ni" fp);
  Alcotest.(check bool) "no anti marker by default" false (has_sub ";anti" fp);
  let with_corr = { cfg with Config.corr = Some (Config.corr_of_string "0.5,2.0") } in
  Alcotest.(check bool) "corr marker appended" true
    (has_sub "|corr(" (Config.fingerprint with_corr));
  let with_ni =
    {
      cfg with
      Config.train_va = { cfg.Config.train_va with Train.noise_injection = true; antithetic = true };
    }
  in
  let fp_ni = Config.fingerprint with_ni in
  Alcotest.(check bool) "ni marker appended" true (has_sub ";ni" fp_ni);
  Alcotest.(check bool) "anti marker appended" true (has_sub ";anti" fp_ni);
  (* Append-only: the degenerate fingerprint is a prefix-preserving
     substring relation, not a reshuffle. *)
  Alcotest.(check bool) "corr fingerprint extends the plain one" true
    (String.length (Config.fingerprint with_corr) > String.length fp
    && String.sub (Config.fingerprint with_corr) 0 (String.length fp) = fp)

let test_corr_of_string () =
  let c = Config.corr_of_string "0.6,1.5" in
  check_close ~eps:0. "rho" c.Variation.rho 0.6;
  check_close ~eps:0. "clen" c.Variation.clen 1.5;
  Alcotest.(check bool) "no drift" true (c.Variation.drift = None);
  let c = Config.corr_of_string "0.4, 2.0, 60, 1000" in
  (match c.Variation.drift with
  | Some d ->
      check_close ~eps:0. "temp" d.Variation.temp_c 60.;
      check_close ~eps:0. "age" d.Variation.age_hours 1000.
  | None -> Alcotest.fail "drift point expected");
  match Config.corr_of_string "0.5" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "1-element spec must be rejected"

(* Statistics ----------------------------------------------------------- *)

let corr_spec ~level = Variation.correlated ~rho:stat_rho ~clen:stat_clen (Variation.uniform level)

(* m draws of a [rows x cols] correlated eps field, flattened row-major
   into an [m x rows*cols] matrix. A genuinely 2-D shape matters: on a
   row vector a transposed read of the whitened field is invisible
   ((c*rows)+r = (r*cols)+c when rows = 1), so only a 2-D covariance
   check localizes indexing bugs — the injected-bug validation above
   was exactly this lesson. *)
let draw_matrix ~seed ~m ~rows ~cols ~spec =
  let rng = Rng.create ~seed in
  Array.init m (fun _ ->
      let d = Variation.make_draw rng spec in
      let e = Variation.eps_for d ~rows ~cols in
      Array.init (rows * cols) (fun j -> T.get e (j / cols) (j mod cols)))

let test_sample_covariance_matches_kernel () =
  let level = 0.2 in
  let s = level /. 2. in
  let rows = 2 and cols = 4 in
  let n = rows * cols and m = 4000 in
  let spec = corr_spec ~level in
  let data = draw_matrix ~seed:31 ~m ~rows ~cols ~spec in
  let mean = Array.init n (fun j -> Array.fold_left (fun a row -> a +. row.(j)) 0. data /. float_of_int m) in
  let cov i j =
    Array.fold_left (fun a row -> a +. ((row.(i) -. mean.(i)) *. (row.(j) -. mean.(j)))) 0. data
    /. float_of_int (m - 1)
  in
  let sigma = kernel_sigma ~rho:stat_rho ~clen:stat_clen ~rows ~cols in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (* Compare correlations (unit-free): the clamp at 4 sigma removes
         a negligible tail, so 0.08 absolute covers sampling noise at
         m = 4000. *)
      let r = cov i j /. sqrt (cov i i *. cov j j) in
      check_close ~eps:0.08 (Printf.sprintf "corr[%d][%d]" i j) r sigma.(i).(j);
      (* And the absolute scale: diagonal variance = s^2. *)
      if i = j then check_close ~eps:(0.1 *. s *. s) "marginal variance" (cov i i) (s *. s)
    done
  done

let test_chi_square_marginals () =
  (* Pool draws of one fixed entry; under the model z = (eps-1)/s is
     standard normal (the 4-sigma clamp moves ~6e-5 of the mass). Eight
     equal-probability bins, chi^2 against df = 7: the 99.9% critical
     value is 24.3, and the run is seeded, so 30 is a stable bound that
     an indexing or scaling bug blows through immediately. *)
  let level = 0.2 in
  let s = level /. 2. in
  let m = 4000 in
  let data = draw_matrix ~seed:37 ~m ~rows:2 ~cols:4 ~spec:(corr_spec ~level) in
  (* Quantiles of N(0,1) at k/8: symmetric pairs. *)
  let q = [| -1.1503493803760083; -0.6744897501960817; -0.3186393639643751; 0. |] in
  let edges = Array.append q (Array.init 4 (fun i -> -.q.(3 - i))) in
  (* edges has 8 entries: 7 interior cut points + the duplicated 0 —
     build the 8 bins from the 7 distinct interior edges. *)
  let cuts = [| edges.(0); edges.(1); edges.(2); edges.(3); edges.(5); edges.(6); edges.(7) |] in
  let entry = 4 in
  let counts = Array.make 8 0 in
  Array.iter
    (fun row ->
      let z = (row.(entry) -. 1.) /. s in
      let b = ref 0 in
      while !b < 7 && z > cuts.(!b) do incr b done;
      counts.(!b) <- counts.(!b) + 1)
    data;
  let e = float_of_int m /. 8. in
  let chi2 = Array.fold_left (fun a o -> a +. (((float_of_int o -. e) ** 2.) /. e)) 0. counts in
  Alcotest.(check bool) (Printf.sprintf "chi2 = %.2f < 30 (df 7)" chi2) true (chi2 < 30.)

let test_antithetic_mirror_exact () =
  Qgen.check ~count:40 ~name:"correlated antithetic pair mirrors exactly"
    ~pp:(fun (seed, (rows, cols)) -> Printf.sprintf "seed=%d shape=%dx%d" seed rows cols)
    (Qgen.pair (Qgen.int_range 0 100_000) (Qgen.pair (Qgen.int_range 1 3) (Qgen.int_range 1 5)))
    (fun (seed, (rows, cols)) ->
      let spec = corr_spec ~level:0.2 in
      let d1, d2 = Variation.antithetic_pair (Rng.create ~seed) spec in
      let e1 = Variation.eps_for d1 ~rows ~cols and e2 = Variation.eps_for d2 ~rows ~cols in
      let m1 = Variation.mu_for d1 ~cols and m2 = Variation.mu_for d2 ~cols in
      let v1 = Variation.v0_for d1 ~cols and v2 = Variation.v0_for d2 ~cols in
      let ok = ref true in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if Float.abs (T.get e1 r c +. T.get e2 r c -. 2.) > 1e-12 then ok := false
        done
      done;
      for c = 0 to cols - 1 do
        if
          Float.abs
            (T.get m1 0 c +. T.get m2 0 c
            -. (Pnc_core.Printed.mu_min +. Pnc_core.Printed.mu_max))
          > 1e-12
          || Float.abs (T.get v1 0 c +. T.get v2 0 c) > 1e-12
        then ok := false
      done;
      !ok)

let test_antithetic_variance_reduction () =
  (* Regression for the variance-reduction property that motivates the
     +NI training estimator: for a statistic with a dominant linear
     component (the field mean), two antithetic draws estimate the
     expectation with far lower variance than two independent draws at
     identical cost. *)
  let spec = corr_spec ~level:0.2 in
  let rows = 2 and cols = 6 in
  let field_mean d =
    let e = Variation.eps_for d ~rows ~cols in
    let s = ref 0. in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        s := !s +. T.get e r c
      done
    done;
    !s /. float_of_int (rows * cols)
  in
  let k = 300 in
  let plain_rng = Rng.create ~seed:41 and anti_rng = Rng.create ~seed:41 in
  let estimates mk = Array.init k (fun _ -> mk ()) in
  let plain =
    estimates (fun () ->
        let d1 = Variation.make_draw plain_rng spec in
        let m1 = field_mean d1 in
        let d2 = Variation.make_draw plain_rng spec in
        (m1 +. field_mean d2) /. 2.)
  in
  let anti =
    estimates (fun () ->
        let d1, d2 = Variation.antithetic_pair anti_rng spec in
        let m1 = field_mean d1 in
        (m1 +. field_mean d2) /. 2.)
  in
  let variance xs =
    let m = Array.fold_left ( +. ) 0. xs /. float_of_int k in
    Array.fold_left (fun a x -> a +. ((x -. m) ** 2.)) 0. xs /. float_of_int (k - 1)
  in
  let vp = variance plain and va = variance anti in
  Alcotest.(check bool)
    (Printf.sprintf "antithetic variance %.3g < 0.1 x plain %.3g" va vp)
    true
    (va < 0.1 *. vp)

(* Drift ---------------------------------------------------------------- *)

let test_drift_defaults_to_unity () =
  let d = Variation.make_draw (Rng.create ~seed:51) (corr_spec ~level:0.2) in
  check_close ~eps:0. "r_mult = 1 without drift" (Variation.drift_r_mult d) 1.;
  check_close ~eps:0. "c_mult = 1 without drift" (Variation.drift_c_mult d) 1.

let test_drift_point_sane_and_memoized () =
  let spec =
    Variation.correlated ~drift:{ Variation.temp_c = 60.; age_hours = 1000. } ~rho:0.5
      ~clen:2.0 (Variation.uniform 0.1)
  in
  let d = Variation.make_draw (Rng.create ~seed:52) spec in
  let r1 = Variation.drift_r_mult d and c1 = Variation.drift_c_mult d in
  Alcotest.(check bool) (Printf.sprintf "hot R drops (%.4f)" r1) true (r1 > 0.5 && r1 < 1.);
  Alcotest.(check bool) (Printf.sprintf "aged C drops (%.4f)" c1) true (c1 > 0.5 && c1 < 1.);
  (* Memoized characterization: the second read must be the same float. *)
  check_close ~eps:0. "r memo" (Variation.drift_r_mult d) r1;
  check_close ~eps:0. "c memo" (Variation.drift_c_mult d) c1

let test_drift_reference_point_exact_unity () =
  let spec =
    Variation.correlated ~drift:{ Variation.temp_c = 25.; age_hours = 0. } ~rho:0.5 ~clen:2.0
      (Variation.uniform 0.1)
  in
  let d = Variation.make_draw (Rng.create ~seed:53) spec in
  (* The reference operating point fits the same circuit three times, so
     the tau ratios are exactly 1.0 — bit-exact, not approximately. *)
  check_close ~eps:0. "r_mult at 25C/0h" (Variation.drift_r_mult d) 1.;
  check_close ~eps:0. "c_mult at 25C/0h" (Variation.drift_c_mult d) 1.

(* {1 Sampling order}

   Every realization against [Replay.factors]: the factors rebuilt from
   [Variation]'s samplers in the documented order must be bit-equal to
   the ones the realization folded in, and the realization must leave
   the stream exactly where the replay does. Both circuit
   architectures, every spec family, plain, straight-through and both
   halves of an antithetic pair, under every family subset that
   [Sensitivity] varies. *)

let order_specs =
  [
    ("uniform", Variation.uniform 0.2);
    ("gaussian", Variation.gaussian 0.2);
    ("gmm", Variation.default_gmm 0.2);
    ( "correlated+drift",
      Variation.correlated
        ~drift:{ Variation.temp_c = 45.; age_hours = 500. }
        ~rho:0.6 ~clen:1.5 (Variation.gaussian 0.2) );
  ]

let order_draws spec ~seed =
  let d1, d2 = Variation.antithetic_pair (Rng.create ~seed) spec in
  [
    ("plain", Variation.make_draw (Rng.create ~seed) spec);
    ("ste", Variation.make_draw ~ste:true (Rng.create ~seed) spec);
    ("antithetic", d1);
    ("mirror", d2);
  ]

let check_layer ~what (f : Replay.layer) (r : Network.layer_t) =
  let module Filter_layer = Pnc_core.Filter_layer in
  let same name a b =
    if not (T.equal_eps ~eps:0. a b) then Alcotest.failf "%s: %s differs from the replay" what name
  in
  same "theta eps" r.cb.theta_eps f.Replay.theta;
  same "bias eps" r.cb.bias_eps f.Replay.bias;
  Array.iteri (fun j e -> same (Printf.sprintf "eta%d eps" (j + 1)) r.act.eps.(j) e) f.Replay.eta;
  if Array.length r.filt.stages_t <> Array.length f.Replay.stages then
    Alcotest.failf "%s: stage count differs" what;
  Array.iteri
    (fun i (s : Replay.stage) ->
      let st = r.filt.stages_t.(i) and name = Printf.sprintf "stage %d %s" i in
      same (name "eps_r") st.Filter_layer.eps_r s.Replay.eps_r;
      same (name "eps_c") st.eps_c s.Replay.eps_c;
      same (name "mu") st.mu s.Replay.mu;
      same (name "v0") st.v0 s.Replay.v0)
    f.Replay.stages;
  if (r.filt.r_mult, r.filt.c_mult) <> f.Replay.drift then
    Alcotest.failf "%s: drift multipliers differ" what

let test_sampling_order () =
  let module Sensitivity = Pnc_core.Sensitivity in
  List.iter
    (fun (arch, seed) ->
      let rng = Rng.create ~seed in
      let hidden = 2 + Rng.int rng 3 in
      let inputs = 1 + Rng.int rng 2 in
      let net = Network.create ~hidden rng arch ~inputs ~classes:(2 + Rng.int rng 2) in
      List.iter
        (fun (spec_name, spec) ->
          List.iter
            (fun (draw_name, d) ->
              List.iter
                (fun family ->
                  let varied = Sensitivity.varied family in
                  let what =
                    Printf.sprintf "%s seed=%d %s %s %s" (Network.arch_name arch) seed spec_name
                      draw_name (Sensitivity.family_name family)
                  in
                  let d = Replay.copy d in
                  let replay = Replay.copy d in
                  let reals = Network.realize_net_t ~varied ~draw:d net in
                  List.iter2 (check_layer ~what) (Replay.factors ~varied net replay) reals;
                  if Rng.to_bytes d.Variation.rng <> Rng.to_bytes replay.Variation.rng then
                    Alcotest.failf "%s: the realization consumed a different amount of stream" what)
                Sensitivity.[ Crossbar_conductances; Filter_rc; Activation_eta; All_families ])
            (order_draws spec ~seed:(seed + 1)))
        order_specs)
    [ (Network.Ptpnc, 5); (Network.Adapt, 6); (Network.Adapt, 71) ]

let () =
  Alcotest.run "pnc_variation"
    [
      ( "cholesky",
        [
          Alcotest.test_case "identity" `Quick test_cholesky_identity;
          Alcotest.test_case "known 2x2" `Quick test_cholesky_known;
          Alcotest.test_case "indefinite -> None" `Quick test_cholesky_indefinite_none;
          Alcotest.test_case "kernel reconstruction" `Quick test_cholesky_reconstructs_kernel;
          Alcotest.test_case "PSD jitter fallback" `Quick test_cholesky_psd_jitter_fallback;
          Alcotest.test_case "indefinite raises" `Quick test_cholesky_psd_indefinite_raises;
          Alcotest.test_case "mat_vec_lower" `Quick test_mat_vec_lower;
        ] );
      ( "degeneracy",
        [
          Alcotest.test_case "rho=0 draws bit-identical" `Quick test_eps0_draw_degeneracy;
          Alcotest.test_case "level=0 stays ones" `Quick test_eps0_level0_degeneracy;
          Alcotest.test_case "corr_active" `Quick test_corr_active;
          Alcotest.test_case "estimators bit-identical" `Quick test_eps0_estimator_degeneracy;
          Alcotest.test_case "fingerprints append-only" `Quick test_fingerprint_append_only;
          Alcotest.test_case "corr_of_string" `Quick test_corr_of_string;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "sample covariance matches kernel" `Quick
            test_sample_covariance_matches_kernel;
          Alcotest.test_case "chi-square marginals" `Quick test_chi_square_marginals;
          Alcotest.test_case "antithetic mirror exact" `Quick test_antithetic_mirror_exact;
          Alcotest.test_case "antithetic variance reduction" `Quick
            test_antithetic_variance_reduction;
        ] );
      ( "drift",
        [
          Alcotest.test_case "unity without drift" `Quick test_drift_defaults_to_unity;
          Alcotest.test_case "drift point sane, memoized" `Quick
            test_drift_point_sane_and_memoized;
          Alcotest.test_case "reference point exactly 1" `Quick
            test_drift_reference_point_exact_unity;
        ] );
      ("sampling order", [ Alcotest.test_case "realization = replay" `Quick test_sampling_order ]);
    ]

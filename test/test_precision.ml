(* Precision-tier battery: the `Exact/`Fast knob introduced with the
   Bigarray kernels.

   Contracts under test:
   - `Exact (the default) is bit-identical (eps 0) to the Var
     path — the seed parity contract is untouched by the tier
     machinery, and library defaults NEVER read ADAPT_PNC_PRECISION
     (this suite re-runs under exact/fast env settings via test/dune);
   - `Fast logits drift from `Exact by at most a small analytic bound
     (per-element tanh error <= 1e-7, amplified through one readout
     layer), and end-to-end accuracy sits inside the seed noise floor;
   - Config.fingerprint records `Fast and ONLY `Fast — the `Exact
     fingerprint is byte-identical to the pre-tier format, so existing
     grid caches stay valid;
   - entry-point resolution: explicit argument beats the environment,
     environment beats the `Exact default. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Batch = Pnc_core.Batch
module Variation = Pnc_core.Variation
module Config = Pnc_exp.Config
module Var = Pnc_autodiff.Var

let tier precision = { Batch.default with precision }

let gpovy_split () =
  let raw = Registry.load ~seed:3 ~n:80 "GPOVY" in
  Dataset.preprocess (Rng.create ~seed:4) raw

let make_circuit seed =
  let rng = Rng.create ~seed in
  Model.Circuit (Network.create ~hidden:4 rng Network.Adapt ~inputs:1 ~classes:2)

(* Logit-level drift bound: each of the two layers applies one tanh per
   element with error <= 1e-7 scaled by eta2 <= 1; layer-2 inputs pass
   through a crossbar (|theta| <= 1, <= 6 inputs) and two filter stages
   before their own tanh (Lipschitz 1), and the readout averages. A
   very loose envelope on that error propagation is 1e-5. *)
let drift_bound = 1e-5

let max_logit_delta a b =
  assert (T.same_shape a b);
  let m = ref 0. in
  for r = 0 to T.rows a - 1 do
    for c = 0 to T.cols a - 1 do
      m := Float.max !m (Float.abs (T.get a r c -. T.get b r c))
    done
  done;
  !m

let test_exact_is_bit_identical () =
  (* The default and the explicit `Exact must both reproduce the
     Var path at eps 0 — even when ADAPT_PNC_PRECISION=fast is
     exported (the env-matrix rerun in test/dune): library defaults
     never consult the environment. *)
  let split = gpovy_split () in
  let x, _ = Train.to_xy split.Dataset.test in
  let model = make_circuit 5 in
  let draw_of seed = Variation.make_draw (Rng.create ~seed) (Variation.uniform 0.1) in
  let reference = Var.value (Model.logits ~draw:(draw_of 11) model x) in
  let default_logits = Model.logits_batch_t ~draw:(draw_of 11) model x in
  let exact_logits = Model.logits_batch_t ~opts:(tier `Exact) ~draw:(draw_of 11) model x in
  Alcotest.(check bool) "default = Var at eps 0" true
    (T.equal_eps ~eps:0. reference default_logits);
  Alcotest.(check bool) "`Exact = Var at eps 0" true
    (T.equal_eps ~eps:0. reference exact_logits)

let test_fast_drift_bounded_circuit () =
  let split = gpovy_split () in
  let x, _ = Train.to_xy split.Dataset.test in
  let model = make_circuit 5 in
  let draw_of seed = Variation.make_draw (Rng.create ~seed) (Variation.uniform 0.1) in
  let exact = Model.logits_batch_t ~opts:(tier `Exact) ~draw:(draw_of 11) model x in
  let fast = Model.logits_batch_t ~opts:(tier `Fast) ~draw:(draw_of 11) model x in
  let d = max_logit_delta exact fast in
  Alcotest.(check bool) (Printf.sprintf "circuit drift %.3g <= %.0e" d drift_bound) true
    (d <= drift_bound);
  Alcotest.(check bool) "tiers actually differ somewhere" true (d > 0.)

let test_fast_drift_bounded_elman () =
  let split = gpovy_split () in
  let x, _ = Train.to_xy split.Dataset.test in
  let model = Model.Reference (Elman.create (Rng.create ~seed:7) ~inputs:1 ~classes:2) in
  let exact = Model.logits_batch_t ~opts:(tier `Exact) model x in
  let fast = Model.logits_batch_t ~opts:(tier `Fast) model x in
  let d = max_logit_delta exact fast in
  Alcotest.(check bool) (Printf.sprintf "elman drift %.3g <= %.0e" d drift_bound) true
    (d <= drift_bound)

let test_end_to_end_drift () =
  (* Smoke-scale end-to-end: train once, evaluate under both tiers.
     Logits differ by <= 1e-5, so a prediction flips only for a sample
     whose top-2 logit margin is below that — accuracy must sit well
     inside the seed noise floor (we allow one flipped sample). *)
  let split = gpovy_split () in
  let rng = Rng.create ~seed:5 in
  let model = make_circuit 5 in
  let cfg =
    { Train.smoke_config with Train.max_epochs = 40; patience = 8; mc_samples = 2 }
  in
  let _ = Train.train ~rng cfg model split in
  let test = split.Dataset.test in
  let acc_exact = Train.accuracy ~opts:(tier `Exact) model test in
  let acc_fast = Train.accuracy ~opts:(tier `Fast) model test in
  let n = Array.length test.Dataset.y in
  let floor = 1. /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "fast acc %.3f within %.3f of exact %.3f" acc_fast floor acc_exact)
    true
    (Float.abs (acc_fast -. acc_exact) <= floor +. 1e-12);
  let x, _ = Train.to_xy test in
  let pred_exact = Model.predict_batch ~opts:(tier `Exact) model x in
  let pred_fast = Model.predict_batch ~opts:(tier `Fast) model x in
  let agree = ref 0 in
  Array.iteri (fun i p -> if p = pred_fast.(i) then incr agree) pred_exact;
  Alcotest.(check bool)
    (Printf.sprintf "predictions agree on %d/%d samples" !agree n)
    true
    (n - !agree <= 1)

let test_fingerprint_records_fast_only () =
  let cfg = Config.of_scale Config.Smoke in
  let fp_exact = Config.fingerprint cfg in
  let fp_fast = Config.fingerprint { cfg with Config.precision = `Fast } in
  (* Byte-compat pin: the `Exact fingerprint must not mention the tier
     at all — it is the exact pre-tier string, keeping old cached grid
     cells valid. *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "exact fingerprint has no precision field" false
    (contains ~needle:"precision" fp_exact);
  Alcotest.(check string) "fast fingerprint appends the tier"
    (fp_exact ^ "|precision=fast") fp_fast

let test_resolution_precedence () =
  (* Explicit argument always wins. *)
  Alcotest.(check string) "explicit fast" "fast"
    (Batch.precision_name (Batch.entry_precision ~precision:`Fast ()));
  Alcotest.(check string) "explicit exact" "exact"
    (Batch.precision_name (Batch.entry_precision ~precision:`Exact ()));
  (* Without an argument, resolution follows the current environment —
     whatever the env-matrix rerun set it to. *)
  let expected =
    match Sys.getenv_opt "ADAPT_PNC_PRECISION" with
    | Some s -> ( match Batch.precision_of_string s with Some p -> p | None -> `Exact)
    | None -> `Exact
  in
  Alcotest.(check string) "env default"
    (Batch.precision_name expected)
    (Batch.precision_name (Batch.entry_precision ()));
  Alcotest.(check bool) "Config.from_env agrees" true
    ((Config.from_env ()).Config.precision = expected)

let test_precision_of_string () =
  Alcotest.(check bool) "exact" true (Batch.precision_of_string "exact" = Some `Exact);
  Alcotest.(check bool) "FAST (case)" true (Batch.precision_of_string "FAST" = Some `Fast);
  Alcotest.(check bool) " fast (trim)" true
    (Batch.precision_of_string " fast " = Some `Fast);
  Alcotest.(check bool) "garbage" true (Batch.precision_of_string "quick" = None)

let () =
  Alcotest.run "pnc_precision"
    [
      ( "parity",
        [
          Alcotest.test_case "exact bit-identical" `Quick test_exact_is_bit_identical;
          Alcotest.test_case "fast drift bounded (circuit)" `Quick
            test_fast_drift_bounded_circuit;
          Alcotest.test_case "fast drift bounded (elman)" `Quick
            test_fast_drift_bounded_elman;
          Alcotest.test_case "end-to-end drift" `Slow test_end_to_end_drift;
        ] );
      ( "config",
        [
          Alcotest.test_case "fingerprint records fast only" `Quick
            test_fingerprint_records_fast_only;
          Alcotest.test_case "resolution precedence" `Quick test_resolution_precedence;
          Alcotest.test_case "precision_of_string" `Quick test_precision_of_string;
        ] );
    ]

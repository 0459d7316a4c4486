(* Tests for the augmentation transforms and the policy tuner. *)

module Augment = Pnc_augment.Augment
module Tune = Pnc_augment.Tune
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Rng = Pnc_util.Rng
module Vec = Pnc_util.Vec
module Stats = Pnc_util.Stats

let rng () = Rng.create ~seed:99

let base_series () =
  Array.init 64 (fun i -> sin (2. *. Float.pi *. float_of_int i /. 32.))

let all_transforms =
  [
    Augment.Jitter { sigma = 0.05 };
    Augment.Magnitude_scale { sigma = 0.1 };
    Augment.Time_warp { knots = 4; strength = 0.3 };
    Augment.Random_crop { ratio = 0.8 };
    Augment.Freq_noise { sigma = 0.05 };
  ]

let test_length_preserved () =
  let s = base_series () in
  List.iter
    (fun t ->
      let out = Augment.apply_transform (rng ()) t s in
      Alcotest.(check int) (Augment.describe t) 64 (Array.length out))
    all_transforms

let test_transforms_change_signal () =
  let s = base_series () in
  List.iter
    (fun t ->
      let out = Augment.apply_transform (rng ()) t s in
      Alcotest.(check bool) (Augment.describe t ^ " changes signal") false
        (Vec.equal_eps ~eps:1e-12 s out))
    all_transforms

let test_input_not_mutated () =
  let s = base_series () in
  let copy = Array.copy s in
  List.iter (fun t -> ignore (Augment.apply_transform (rng ()) t s)) all_transforms;
  Alcotest.(check bool) "input untouched" true (Vec.equal_eps ~eps:0. copy s)

let test_deterministic_per_seed () =
  let s = base_series () in
  let a = Augment.apply_policy (Rng.create ~seed:5) Augment.default_policy s in
  let b = Augment.apply_policy (Rng.create ~seed:5) Augment.default_policy s in
  Alcotest.(check bool) "same seed same output" true (Vec.equal_eps ~eps:0. a b)

let test_jitter_statistics () =
  let s = Array.make 4096 0. in
  let out = Augment.apply_transform (rng ()) (Augment.Jitter { sigma = 0.2 }) s in
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean out) < 0.02);
  Alcotest.(check bool) "std near sigma" true (Float.abs (Stats.std out -. 0.2) < 0.02)

let test_magnitude_scale_is_uniform_gain () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Magnitude_scale { sigma = 0.2 }) s in
  (* out = k * s for a single k: check ratio constancy where s is not ~0 *)
  let k = out.(1) /. s.(1) in
  Array.iteri
    (fun i x ->
      if Float.abs s.(i) > 0.1 then
        Alcotest.(check (float 1e-9)) "constant gain" k (x /. s.(i)))
    out

let test_warp_path_monotone () =
  let r = rng () in
  for _ = 1 to 50 do
    let p = Augment.warp_path r ~knots:4 ~strength:0.4 64 in
    Alcotest.(check (float 1e-9)) "starts at 0" 0. p.(0);
    Alcotest.(check (float 1e-6)) "ends at n-1" 63. p.(63);
    for i = 1 to 63 do
      if p.(i) <= p.(i - 1) then Alcotest.failf "not strictly increasing at %d" i
    done
  done

let test_time_warp_preserves_range () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Time_warp { knots = 4; strength = 0.4 }) s in
  (* Interpolated values cannot exceed the original range. *)
  Alcotest.(check bool) "within range" true
    (Array.for_all (fun x -> x >= Vec.min s -. 1e-9 && x <= Vec.max s +. 1e-9) out)

let test_crop_within_range () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Random_crop { ratio = 0.7 }) s in
  Alcotest.(check int) "length restored" 64 (Array.length out);
  Alcotest.(check bool) "within range" true
    (Array.for_all (fun x -> x >= Vec.min s -. 1e-9 && x <= Vec.max s +. 1e-9) out)

let test_crop_full_ratio_identity () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Random_crop { ratio = 1.0 }) s in
  Alcotest.(check bool) "ratio 1 is identity" true (Vec.equal_eps ~eps:0. s out)

let test_freq_noise_output_real_and_close () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Freq_noise { sigma = 0.05 }) s in
  Array.iter (fun x -> if Float.is_nan x then Alcotest.fail "NaN") out;
  (* small sigma -> bounded deviation *)
  let dev = Vec.norm2 (Vec.sub out s) /. Vec.norm2 s in
  Alcotest.(check bool) (Printf.sprintf "relative deviation %.3f bounded" dev) true (dev < 0.8)

let test_freq_noise_preserves_mean () =
  (* DC bin untouched: the mean survives exactly. *)
  let s = Array.map (fun x -> x +. 0.7) (base_series ()) in
  let out = Augment.apply_transform (rng ()) (Augment.Freq_noise { sigma = 0.1 }) s in
  Alcotest.(check (float 1e-9)) "mean preserved" (Stats.mean s) (Stats.mean out)

let test_policy_prob_zero_is_identity () =
  let s = base_series () in
  let p = { Augment.default_policy with prob = 0. } in
  let out = Augment.apply_policy (rng ()) p s in
  Alcotest.(check bool) "identity" true (Vec.equal_eps ~eps:0. s out)

let test_augment_dataset_counts () =
  let d = Registry.load ~seed:1 ~n:30 "CBF" in
  let aug = Augment.augment_dataset (rng ()) Augment.default_policy ~copies:2 d in
  Alcotest.(check int) "original + 2 copies" 90 (Dataset.n_samples aug);
  (* labels replicated in order *)
  Alcotest.(check int) "label of first copy" d.Pnc_data.Dataset.y.(0) aug.Pnc_data.Dataset.y.(30)

let test_perturb_dataset_changes_everything () =
  let d = Registry.load ~seed:1 ~n:20 "PowerCons" in
  let p = Augment.perturb_dataset (rng ()) Augment.default_policy d in
  Alcotest.(check int) "same size" (Dataset.n_samples d) (Dataset.n_samples p);
  Array.iteri
    (fun i s ->
      if Vec.equal_eps ~eps:0. s p.Pnc_data.Dataset.x.(i) then
        Alcotest.failf "series %d unchanged by perturbation" i)
    d.Pnc_data.Dataset.x

(* Extended (tsaug) transforms ------------------------------------------------ *)

let test_drift_anchored_start () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Drift { max_drift = 0.5; knots = 3 }) s in
  Alcotest.(check int) "length" 64 (Array.length out);
  Alcotest.(check (float 1e-9)) "first sample anchored" s.(0) out.(0);
  Alcotest.(check bool) "wanders later" false (Vec.equal_eps ~eps:1e-9 s out)

let test_drift_bounded () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Drift { max_drift = 0.3; knots = 4 }) s in
  Array.iteri
    (fun i x ->
      if Float.abs (x -. s.(i)) > 0.3 +. 1e-9 then
        Alcotest.failf "drift exceeds bound at %d: %f" i (x -. s.(i)))
    out

let test_dropout_zero () =
  let s = Array.make 512 1. in
  let out = Augment.apply_transform (rng ()) (Augment.Dropout { ratio = 0.3; fill = `Zero }) s in
  let zeros = Array.fold_left (fun acc x -> if x = 0. then acc + 1 else acc) 0 out in
  Alcotest.(check bool) (Printf.sprintf "~30%% dropped (%d/512)" zeros) true
    (zeros > 100 && zeros < 220);
  Array.iter (fun x -> if x <> 0. && x <> 1. then Alcotest.fail "unexpected value") out

let test_dropout_hold () =
  let s = Array.init 256 float_of_int in
  let out = Augment.apply_transform (rng ()) (Augment.Dropout { ratio = 0.4; fill = `Hold }) s in
  (* Held samples repeat an earlier value: the output is non-decreasing
     for a strictly increasing input. *)
  for i = 1 to 255 do
    if out.(i) < out.(i - 1) -. 1e-12 then Alcotest.failf "hold broke monotonicity at %d" i
  done

let test_quantize_levels () =
  let s = base_series () in
  let out = Augment.apply_transform (rng ()) (Augment.Quantize { levels = 5 }) s in
  let module FS = Set.Make (Float) in
  let distinct = FS.cardinal (FS.of_list (Array.to_list out)) in
  Alcotest.(check bool) (Printf.sprintf "at most 5 levels (%d)" distinct) true (distinct <= 5);
  Alcotest.(check (float 1e-9)) "range preserved lo" (Vec.min s) (Vec.min out);
  Alcotest.(check (float 1e-9)) "range preserved hi" (Vec.max s) (Vec.max out)

let test_quantize_idempotent () =
  let s = base_series () in
  let t = Augment.Quantize { levels = 7 } in
  let once = Augment.apply_transform (rng ()) t s in
  let twice = Augment.apply_transform (rng ()) t once in
  Alcotest.(check bool) "idempotent" true (Vec.equal_eps ~eps:1e-9 once twice)

(* Tune ---------------------------------------------------------------------- *)

let test_tune_picks_argmax () =
  (* Score = negative jitter sigma: the search must find a candidate
     with small jitter among its draws. *)
  let eval (p : Augment.policy) =
    match p.transforms with
    | Augment.Jitter { sigma } :: _ -> -.sigma
    | _ -> -1000.
  in
  let c = Tune.search (rng ()) ~budget:50 ~eval in
  Alcotest.(check bool) "found low jitter" true (c.Tune.score > -0.03)

let test_tune_includes_default () =
  (* With budget 0 only the default policy is evaluated. *)
  let c = Tune.search (rng ()) ~budget:0 ~eval:(fun _ -> 42.) in
  Alcotest.(check (float 0.)) "default evaluated" 42. c.Tune.score

let test_tune_reports_ties () =
  (* Two candidates with equal scores are a tie of two: the first
     evaluated, the default, is kept. A unique best is a tie of one. *)
  let c = Tune.search (rng ()) ~budget:1 ~eval:(fun _ -> 0.5) in
  Alcotest.(check int) "two tied" 2 c.Tune.ties;
  Alcotest.(check bool) "first evaluated kept" true (c.Tune.policy = Augment.default_policy);
  let c =
    Tune.search (rng ()) ~budget:3 ~eval:(fun p -> if p = Augment.default_policy then 0.9 else 0.5)
  in
  Alcotest.(check int) "unique best" 1 c.Tune.ties;
  Alcotest.(check (float 0.)) "its score" 0.9 c.Tune.score

let test_random_policy_ranges () =
  let r = rng () in
  for _ = 1 to 100 do
    let p = Tune.random_policy r in
    Alcotest.(check bool) "prob in range" true (p.Augment.prob >= 0.3 && p.Augment.prob <= 0.8);
    List.iter
      (fun t ->
        match t with
        | Augment.Jitter { sigma } ->
            Alcotest.(check bool) "jitter range" true (sigma >= 0.01 && sigma <= 0.1)
        | Augment.Random_crop { ratio } ->
            Alcotest.(check bool) "crop range" true (ratio >= 0.7 && ratio <= 0.95)
        | Augment.Time_warp { knots; strength } ->
            Alcotest.(check bool) "warp range" true
              (knots >= 2 && knots <= 6 && strength >= 0.1 && strength <= 0.5)
        | Augment.Magnitude_scale { sigma } ->
            Alcotest.(check bool) "scale range" true (sigma >= 0.05 && sigma <= 0.2)
        | Augment.Freq_noise { sigma } ->
            Alcotest.(check bool) "freq range" true (sigma >= 0.01 && sigma <= 0.1)
        | Augment.Drift _ | Augment.Dropout _ | Augment.Quantize _ ->
            Alcotest.fail "tuner draws only the paper's five transforms")
      p.Augment.transforms
  done

let prop_augment_dataset_labels_preserved =
  QCheck.Test.make ~count:30 ~name:"augment_dataset preserves per-class counts x(copies+1)"
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, copies) ->
      let d = Registry.load ~seed ~n:24 "CBF" in
      let aug =
        Augment.augment_dataset (Rng.create ~seed:(seed + 1)) Augment.default_policy ~copies d
      in
      let scale = copies + 1 in
      Array.for_all2
        (fun orig augd -> augd = scale * orig)
        (Dataset.class_counts d) (Dataset.class_counts aug))

let prop_perturb_deterministic =
  QCheck.Test.make ~count:30 ~name:"perturb_dataset deterministic per seed"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let d = Registry.load ~seed ~n:10 "Slope" in
      let p1 = Augment.perturb_dataset (Rng.create ~seed:7) Augment.default_policy d in
      let p2 = Augment.perturb_dataset (Rng.create ~seed:7) Augment.default_policy d in
      Array.for_all2 (Vec.equal_eps ~eps:0.) p1.Pnc_data.Dataset.x p2.Pnc_data.Dataset.x)

let prop_policy_length_preserving =
  QCheck.Test.make ~count:100 ~name:"apply_policy preserves length"
    QCheck.(pair (int_range 0 10_000) (int_range 8 128))
    (fun (seed, n) ->
      let r = Rng.create ~seed in
      let s = Array.init n (fun i -> cos (0.3 *. float_of_int i)) in
      let out = Augment.apply_policy r (Tune.random_policy r) s in
      Array.length out = n && Array.for_all Float.is_finite out)

let () =
  Alcotest.run "pnc_augment"
    [
      ( "transforms",
        [
          Alcotest.test_case "length preserved" `Quick test_length_preserved;
          Alcotest.test_case "transforms change signal" `Quick test_transforms_change_signal;
          Alcotest.test_case "input not mutated" `Quick test_input_not_mutated;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic_per_seed;
          Alcotest.test_case "jitter statistics" `Quick test_jitter_statistics;
          Alcotest.test_case "magnitude scale uniform gain" `Quick test_magnitude_scale_is_uniform_gain;
          Alcotest.test_case "warp path monotone" `Quick test_warp_path_monotone;
          Alcotest.test_case "time warp range" `Quick test_time_warp_preserves_range;
          Alcotest.test_case "crop range" `Quick test_crop_within_range;
          Alcotest.test_case "crop ratio 1 identity" `Quick test_crop_full_ratio_identity;
          Alcotest.test_case "freq noise sane" `Quick test_freq_noise_output_real_and_close;
          Alcotest.test_case "freq noise keeps mean" `Quick test_freq_noise_preserves_mean;
        ] );
      ( "policies",
        [
          Alcotest.test_case "prob 0 identity" `Quick test_policy_prob_zero_is_identity;
          Alcotest.test_case "augment_dataset counts" `Quick test_augment_dataset_counts;
          Alcotest.test_case "perturb changes all series" `Quick test_perturb_dataset_changes_everything;
        ] );
      ( "extended-transforms",
        [
          Alcotest.test_case "drift anchored" `Quick test_drift_anchored_start;
          Alcotest.test_case "drift bounded" `Quick test_drift_bounded;
          Alcotest.test_case "dropout zero" `Quick test_dropout_zero;
          Alcotest.test_case "dropout hold" `Quick test_dropout_hold;
          Alcotest.test_case "quantize levels" `Quick test_quantize_levels;
          Alcotest.test_case "quantize idempotent" `Quick test_quantize_idempotent;
        ] );
      ( "tune",
        [
          Alcotest.test_case "argmax search" `Quick test_tune_picks_argmax;
          Alcotest.test_case "default included" `Quick test_tune_includes_default;
          Alcotest.test_case "ties reported" `Quick test_tune_reports_ties;
          Alcotest.test_case "random policy ranges" `Quick test_random_policy_ranges;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_policy_length_preserving;
            prop_augment_dataset_labels_preserved;
            prop_perturb_deterministic;
          ] );
    ]

(* Ablation benches for the design choices DESIGN.md §5 calls out.

   Sections:
   A. mu-prior ablation — does sampling the coupling factor
      µ ~ U[1, 1.3] during training help when the printed circuit
      actually exhibits coupling?
   B. read-out ablation — integrated (time-averaged) class scores vs
      reading the final instant only.
   C. learned filter placement — where do the trained cutoffs land
      relative to the dataset's spectral content?
   D. conductance discretization ladder — how many ink levels the
      trained crossbars need.
   E. component-family sensitivity — which family drives the loss
      under variation.

   Run with: dune exec bench/ablations.exe
   (uses a reduced budget; ADAPT_PNC_SCALE is not consulted here). *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Table = Pnc_util.Table
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Network = Pnc_core.Network
module Batch = Pnc_core.Batch
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Optimizer = Pnc_optim.Optimizer
module Spectrum = Pnc_signal.Spectrum

let datasets = [ "CBF"; "PowerCons"; "GPMVF" ]
let budget = { Train.fast_config with Train.max_epochs = 180; patience = 12 }

let load name seed =
  let raw = Registry.load ~seed ~n:160 name in
  (Dataset.preprocess (Rng.create ~seed:(seed + 1)) raw, raw.Dataset.n_classes)

(* The ADAPT net the sections study, its initial draw from [seed]. *)
let adapt_net ~seed ~classes =
  Network.create ~hidden:(min 8 (2 * classes)) (Rng.create ~seed) Network.Adapt ~inputs:1 ~classes

(* [adapt_net] trained with [cfg] (default [budget]) on stream [seed + 1]. *)
let train_adapt ?(cfg = budget) ~seed split ~classes =
  let net = adapt_net ~seed ~classes in
  let _ = Train.train ~rng:(Rng.create ~seed:(seed + 1)) cfg (Model.Circuit net) split in
  net

(* A. mu-prior ablation ----------------------------------------------------- *)

(* Train with the given variation spec but control whether mu is sampled
   by toggling the draw's determinism: a spec with level 0 and v0 0
   makes mu_for return ones. We emulate "no mu prior" by training with
   Variation.none (so every draw is nominal incl. mu = 1) and "with
   prior" by the standard VA config; both are then evaluated with mu
   sampled (the physical truth) plus 10% components. *)
let mu_ablation () =
  print_endline "A. mu-prior ablation (evaluated with mu in [1,1.3] + 10% components)";
  let t = Table.create ~header:[ "Dataset"; "trained mu=1 fixed"; "trained mu sampled" ] in
  List.iter
    (fun name ->
      let split, classes = load name 0 in
      let train_with variation mc =
        Model.Circuit
          (train_adapt ~cfg:{ budget with Train.variation; mc_samples = mc } ~seed:7 split ~classes)
      in
      let fixed = train_with Variation.none 1 in
      let sampled = train_with (Variation.uniform 0.1) 2 in
      let eval model =
        Train.accuracy_under_variation ~rng:(Rng.create ~seed:9)
          ~spec:(Variation.uniform 0.1) ~draws:8 model split.Dataset.test
      in
      Table.add_row t
        [ name; Printf.sprintf "%.3f" (eval fixed); Printf.sprintf "%.3f" (eval sampled) ])
    datasets;
  Table.print t;
  print_newline ()

(* B. read-out ablation ------------------------------------------------------- *)

let train_with_readout ~readout split ~classes =
  let net = adapt_net ~seed:17 ~classes in
  let x, y = Train.to_xy split.Dataset.train in
  let params = Network.params net in
  let opt = Optimizer.adamw ~params () in
  let steps = T.columns x and model = Model.Circuit net in
  let sched = Pnc_optim.Scheduler.plateau ~patience:12 ~init_lr:0.05 () in
  let xv, yv = Train.to_xy split.Dataset.valid in
  let opts = { Batch.default with readout } in
  (try
     for _ = 1 to 180 do
       let loss =
         Pnc_core.Adjoint.expected ~n:1 ~tasks:[| [| Variation.deterministic |] |] ~readout net
           ~steps ~labels:y
       in
       Train.descend ~clip:5. opt ~lr:(Pnc_optim.Scheduler.lr sched) model loss;
       let vl =
         Pnc_autodiff.Loss.cross_entropy_value
           ~logits:(Network.forward_batch_t ~opts ~draw:Variation.deterministic net xv)
           ~labels:yv
       in
       match Pnc_optim.Scheduler.observe sched vl with
       | `Stop -> raise Exit
       | `Continue -> ()
     done
   with Exit -> ());
  net

let readout_ablation () =
  print_endline "B. read-out ablation (clean test accuracy)";
  let t = Table.create ~header:[ "Dataset"; "last-step read-out"; "integrated read-out" ] in
  List.iter
    (fun name ->
      let split, classes = load name 0 in
      let eval readout =
        let net = train_with_readout ~readout split ~classes in
        Train.accuracy ~opts:{ Batch.default with readout } (Model.Circuit net) split.Dataset.test
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.3f" (eval Batch.Last_step);
          Printf.sprintf "%.3f" (eval Batch.Integrated);
        ])
    datasets;
  Table.print t;
  print_newline ()

(* C. learned filter placement -------------------------------------------------- *)

let filter_placement () =
  print_endline "C. learned filter cutoffs vs dataset spectral roll-off";
  let t =
    Table.create ~header:[ "Dataset"; "signal 95% roll-off (Hz)"; "learned cutoffs L1 (Hz)" ]
  in
  List.iter
    (fun name ->
      let split, classes = load name 0 in
      let net = train_adapt ~seed:27 split ~classes in
      (* Spectral content at the physical rate 1/dt. *)
      let fs = 1. /. Pnc_core.Printed.dt in
      let rolloffs =
        Array.map
          (fun s -> Spectrum.rolloff_hz (Spectrum.periodogram ~fs s))
          split.Dataset.train.Dataset.x
      in
      let cutoffs =
        match Network.layers net with
        | (_, fl, _) :: _ -> Pnc_core.Filter_layer.cutoff_hz fl
        | [] -> [||]
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.1f" (Pnc_util.Stats.mean rolloffs);
          String.concat ", "
            (Array.to_list (Array.map (Printf.sprintf "%.1f") cutoffs));
        ])
    datasets;
  Table.print t;
  print_newline ()

(* D. discretization ladder -------------------------------------------------------- *)

let discretization_ladder () =
  print_endline "D. conductance discretization (ink levels -> clean accuracy)";
  let levels = [ 2; 3; 4; 8; 16 ] in
  let t =
    Table.create
      ~header:("Dataset" :: "cont." :: List.map (fun l -> Printf.sprintf "%d lvl" l) levels)
  in
  List.iter
    (fun name ->
      let split, classes = load name 0 in
      let net = train_adapt ~seed:37 split ~classes in
      let continuous = Train.accuracy (Model.Circuit net) split.Dataset.test in
      let ladder =
        Pnc_core.Discretize.accuracy_ladder ~levels_list:levels net split.Dataset.test
      in
      Table.add_row t
        (name :: Printf.sprintf "%.3f" continuous
        :: List.map (fun (_, acc) -> Printf.sprintf "%.3f" acc) ladder))
    datasets;
  Table.print t;
  print_newline ()

(* E. sensitivity --------------------------------------------------------------------- *)

let sensitivity_summary () =
  print_endline "E. component-family sensitivity at ±15% (accuracy drop vs nominal)";
  let t =
    Table.create ~header:[ "Dataset"; "theta only"; "filter RC only"; "eta only"; "all" ]
  in
  List.iter
    (fun name ->
      let split, classes = load name 0 in
      let net = train_adapt ~seed:47 split ~classes in
      let rows =
        Pnc_core.Sensitivity.analyze ~rng:(Rng.create ~seed:49) ~level:0.15 ~draws:8 net
          split.Dataset.test
      in
      let drop f =
        let r = List.find (fun r -> r.Pnc_core.Sensitivity.family = f) rows in
        Printf.sprintf "%+.3f" r.Pnc_core.Sensitivity.drop
      in
      Table.add_row t
        [
          name;
          drop Pnc_core.Sensitivity.Crossbar_conductances;
          drop Pnc_core.Sensitivity.Filter_rc;
          drop Pnc_core.Sensitivity.Activation_eta;
          drop Pnc_core.Sensitivity.All_families;
        ])
    datasets;
  Table.print t;
  print_newline ()

(* F. per-chip calibration --------------------------------------------------------- *)

let calibration_study () =
  print_endline
    "F. per-chip bias trimming at ±20% variation (3 manufactured instances per dataset)";
  let t =
    Table.create ~header:[ "Dataset"; "chip"; "before trim"; "after trim" ]
  in
  List.iter
    (fun name ->
      let split, classes = load name 0 in
      let net = train_adapt ~seed:57 split ~classes in
      List.iter
        (fun chip_seed ->
          let chip = Pnc_core.Calibrate.chip ~seed:chip_seed (Variation.uniform 0.2) in
          let { Pnc_core.Calibrate.before; after } =
            Pnc_core.Calibrate.evaluate ~chip net ~calibration:split.Dataset.valid
              ~test:split.Dataset.test
          in
          Table.add_row t
            [ name; string_of_int chip_seed; Printf.sprintf "%.3f" before; Printf.sprintf "%.3f" after ])
        [ 1; 2; 3 ])
    datasets;
  Table.print t;
  print_newline ()

(* G. variation-model mismatch -------------------------------------------------------- *)

let variation_model_study () =
  print_endline
    "G. variation-model mismatch: trained on uniform ±10%, evaluated under the device-level GMM";
  let t =
    Table.create
      ~header:[ "Dataset"; "eval uniform ±10%"; "eval GMM (10%)"; "eval GMM (20%)" ]
  in
  List.iter
    (fun name ->
      let split, classes = load name 0 in
      let model =
        Model.Circuit
          (train_adapt
             ~cfg:{ budget with Train.variation = Variation.uniform 0.1; mc_samples = 2 }
             ~seed:67 split ~classes)
      in
      let eval spec =
        Train.accuracy_under_variation ~rng:(Rng.create ~seed:69) ~spec ~draws:8 model
          split.Dataset.test
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.3f" (eval (Variation.uniform 0.1));
          Printf.sprintf "%.3f" (eval (Variation.default_gmm 0.1));
          Printf.sprintf "%.3f" (eval (Variation.default_gmm 0.2));
        ])
    datasets;
  Table.print t;
  print_endline
    "(the GMM's minority wide mode stresses the design beyond the uniform training model)";
  print_newline ()

(* H. artifact microbenchmarks (Bechamel) -------------------------------------------- *)

let artifact_microbench () =
  let open Bechamel in
  let open Toolkit in
  print_endline "H. artifact regeneration microbenchmarks (Bechamel, monotonic clock)";
  let fig6 () = ignore (Pnc_exp.Experiments.fig6 ()) in
  let mu_extract () =
    ignore (Pnc_core.Coupling.extract ~r:1000. ~c:1e-5 ~r_load:33_000. ())
  in
  let filter_cutoff () =
    let circ = Pnc_spice.Circuit.create () in
    let vin = Pnc_spice.Circuit.node circ "in" and out = Pnc_spice.Circuit.node circ "out" in
    Pnc_spice.Circuit.vsource circ ~ac:1. vin Pnc_spice.Circuit.ground 0.;
    Pnc_spice.Circuit.resistor circ vin out 1000.;
    Pnc_spice.Circuit.capacitor circ out Pnc_spice.Circuit.ground 1e-5;
    ignore (Pnc_spice.Ac.cutoff_hz circ ~probe:out)
  in
  let ptanh_char () = ignore (Pnc_core.Ptanh_circuit.characterize ()) in
  let forward_pass =
    let rng = Rng.create ~seed:99 in
    let net = Network.create ~hidden:6 rng Network.Adapt ~inputs:1 ~classes:3 in
    let x = Pnc_tensor.Tensor.uniform rng ~rows:64 ~cols:64 ~lo:(-1.) ~hi:1. in
    fun () -> ignore (Network.forward_batch_t ~draw:Pnc_core.Variation.deterministic net x)
  in
  let tests =
    Test.make_grouped ~name:"artifact" ~fmt:"%s %s"
      [
        Test.make ~name:"fig6-augmentations" (Staged.stage fig6);
        Test.make ~name:"mu-extraction" (Staged.stage mu_extract);
        Test.make ~name:"filter-ac-cutoff" (Staged.stage filter_cutoff);
        Test.make ~name:"ptanh-characterize" (Staged.stage ptanh_char);
        Test.make ~name:"adapt-forward-batch-t-64x64" (Staged.stage forward_pass);
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) ->
          Printf.printf "  %-32s %s/run\n" name (Pnc_util.Timer.fmt_seconds (est *. 1e-9))
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    clock;
  print_newline ()

let () =
  print_endline "ADAPT-pNC design-choice ablations\n";
  mu_ablation ();
  readout_ablation ();
  filter_placement ();
  discretization_ladder ();
  sensitivity_summary ();
  calibration_study ();
  variation_model_study ();
  artifact_microbench ();
  print_endline "done."

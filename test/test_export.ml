(* Tests for the extension modules: SPICE deck rendering, trained-model
   netlist export with DC cross-validation, Monte-Carlo yield analysis
   and the architecture search. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Circuit = Pnc_spice.Circuit
module Deck = Pnc_spice.Deck
module Ac = Pnc_spice.Ac
module Crossbar = Pnc_core.Crossbar
module Network = Pnc_core.Network
module Model = Pnc_core.Model
module Variation = Pnc_core.Variation
module Filter_layer = Pnc_core.Filter_layer
module Netlist_export = Pnc_core.Netlist_export
module Yield = Pnc_core.Yield
module Search = Pnc_exp.Search
module Config = Pnc_exp.Config
module Experiments = Pnc_exp.Experiments
module Train = Pnc_core.Train
module Batch = Pnc_core.Batch
module Sensitivity = Pnc_core.Sensitivity
module Hardware = Pnc_core.Hardware
module Obs = Pnc_obs.Obs

(* Substring search helper (Stdlib.String has no [contains] for substrings). *)
module Str_contains = struct
  let contains haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    nl = 0 || go 0
end

let rng () = Rng.create ~seed:77

(* Deck -------------------------------------------------------------------- *)

let test_fmt_si () =
  List.iter
    (fun (v, expected) -> Alcotest.(check string) (string_of_float v) expected (Deck.fmt_si v))
    [
      (4700., "4.7k");
      (1e-7, "100n");
      (1e6, "1Meg");
      (0.01, "10m");
      (1., "1");
      (2.2e-6, "2.2u");
      (3.3e9, "3.3G");
    ]

let test_deck_renders_cards () =
  let c = Circuit.create () in
  let a = Circuit.node c "a" and b = Circuit.node c "b" in
  Circuit.vsource c ~name:"V1" a Circuit.ground 1.;
  Circuit.resistor c ~name:"R1" a b 4700.;
  Circuit.capacitor c ~name:"C1" b Circuit.ground 1e-7;
  Circuit.egt c ~name:"T1" ~drain:a ~gate:b ~source:Circuit.ground ();
  let deck = Deck.to_string ~title:"test" c in
  List.iter
    (fun needle ->
      if not (String.length deck > 0 && Str_contains.contains deck needle) then
        Alcotest.failf "deck missing %S:\n%s" needle deck)
    [ "* test"; "V1 a 0 DC 1"; "R1 a b 4.7k"; "C1 b 0 100n"; "* T1"; ".end" ]

let test_component_summary () =
  let c = Circuit.create () in
  let a = Circuit.node c "a" in
  Circuit.resistor c a Circuit.ground 10.;
  Circuit.resistor c a Circuit.ground 20.;
  Circuit.capacitor c a Circuit.ground 1e-6;
  Alcotest.(check string) "summary" "2 R, 1 C" (Deck.component_summary c)

(* Netlist export ------------------------------------------------------------ *)

let test_crossbar_export_matches_eq1 () =
  let r = rng () in
  for trial = 1 to 10 do
    let inputs_n = 1 + Rng.int r 4 in
    let outputs = 1 + Rng.int r 3 in
    let cb = Crossbar.create r ~inputs:inputs_n ~outputs in
    let inputs = Array.init inputs_n (fun _ -> Rng.uniform r ~lo:(-1.) ~hi:1.) in
    if not (Netlist_export.dc_check cb ~inputs ~max_abs_error:1e-9) then
      Alcotest.failf "trial %d: netlist does not reproduce Eq. (1)" trial
  done

let test_crossbar_export_device_inventory () =
  let r = rng () in
  let cb = Crossbar.create r ~inputs:2 ~outputs:2 in
  let circ, outs = Netlist_export.crossbar cb ~inputs:[| 0.3; -0.5 |] in
  Alcotest.(check int) "two output nodes" 2 (Array.length outs);
  let _, resistors, _ = Circuit.device_counts circ in
  (* at most 2x2 weights + 2 bias + 2 dummy *)
  Alcotest.(check bool) "resistor count plausible" true (resistors >= 4 && resistors <= 8)

let test_filter_stage_export_cutoff () =
  let fl = Filter_layer.create (rng ()) Filter_layer.First ~features:2 in
  let circ, out = Netlist_export.filter_stage fl ~stage:0 ~channel:1 in
  let fc_spice = Ac.cutoff_hz circ ~probe:out in
  let fc_model = (Filter_layer.cutoff_hz fl).(1) in
  Alcotest.(check bool)
    (Printf.sprintf "cutoffs agree (%.2f vs %.2f Hz)" fc_spice fc_model)
    true
    (Float.abs (fc_spice -. fc_model) /. fc_model < 0.01)

let test_network_deck_nonempty () =
  let net = Network.create ~hidden:2 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let deck = Netlist_export.deck net in
  Alcotest.(check bool) "has crossbar sections" true (Str_contains.contains deck "crossbar");
  Alcotest.(check bool) "has filter sections" true (Str_contains.contains deck "filter stage");
  Alcotest.(check bool) "terminated" true (Str_contains.contains deck ".end")

(* Yield ----------------------------------------------------------------------- *)

let toy_dataset () =
  let raw = Pnc_data.Registry.load ~seed:5 ~n:40 "GPOVY" in
  let split = Pnc_data.Dataset.preprocess (Rng.create ~seed:6) raw in
  split.Pnc_data.Dataset.test

let test_yield_bounds_and_fields () =
  let net = Network.create ~hidden:2 (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let r =
    Yield.estimate ~rng:(rng ()) ~spec:(Variation.uniform 0.1) ~threshold:0.5 ~draws:6 model
      (toy_dataset ())
  in
  Alcotest.(check int) "draws recorded" 6 r.Yield.draws;
  Alcotest.(check bool) "bounds ordered" true (r.Yield.worst <= r.Yield.mean_acc && r.Yield.mean_acc <= r.Yield.best);
  Alcotest.(check bool) "yield in [0,1]" true (r.Yield.yield >= 0. && r.Yield.yield <= 1.)

let test_yield_threshold_monotone () =
  let net = Network.create ~hidden:2 (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let d = toy_dataset () in
  let y t =
    (Yield.estimate ~rng:(Rng.create ~seed:9) ~spec:(Variation.uniform 0.1) ~threshold:t
       ~draws:8 model d)
      .Yield.yield
  in
  Alcotest.(check bool) "lower threshold, higher yield" true (y 0.0 >= y 0.9);
  Alcotest.(check (float 0.)) "threshold 0 is 100%" 1. (y 0.0)

let test_yield_reference_single_instance () =
  let model = Model.Reference (Pnc_core.Elman.create (rng ()) ~inputs:1 ~classes:2) in
  let r =
    Yield.estimate ~rng:(rng ()) ~spec:(Variation.uniform 0.1) ~threshold:0.5 ~draws:10 model
      (toy_dataset ())
  in
  Alcotest.(check int) "one deterministic instance" 1 r.Yield.draws;
  Alcotest.(check (float 1e-9)) "no spread" 0. r.Yield.std_acc

let test_yield_sweep_levels () =
  let net = Network.create ~hidden:2 (rng ()) Network.Ptpnc ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let rows =
    Yield.sweep_levels ~rng:(rng ()) ~levels:[ 0.; 0.1; 0.3 ] ~threshold:0.5 ~draws:4 model
      (toy_dataset ())
  in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  let level0 = List.assoc 0. rows in
  Alcotest.(check int) "level 0 single draw" 1 level0.Yield.draws

let test_yield_describe () =
  let r =
    {
      Yield.draws = 10;
      mean_acc = 0.8;
      std_acc = 0.05;
      worst = 0.7;
      best = 0.9;
      yield = 0.9;
      threshold = 0.75;
    }
  in
  Alcotest.(check bool) "mentions yield" true (Str_contains.contains (Yield.describe r) "90%")

(* One sampler ------------------------------------------------------------------- *)

(* Every estimate under variation draws its instances through
   [Mc_loss]: the scorers below must agree bit for bit on the same
   stream. *)

let counter name =
  List.fold_left
    (fun acc (n, fields) ->
      match (n, List.assoc_opt "value" fields) with
      | n', Some (Obs.Int v) when n' = name -> acc + v
      | _ -> acc)
    0 (Obs.metrics_snapshot ())

let same_bits name a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then Alcotest.failf "%s: %h <> %h" name a b

let test_reference_one_instance () =
  let model = Model.Reference (Pnc_core.Elman.create (rng ()) ~inputs:1 ~classes:2) in
  let d = toy_dataset () in
  let before = counter "eval.variation_draws" in
  let acc =
    Train.accuracy_under_variation ~rng:(rng ()) ~spec:(Variation.uniform 0.1) ~draws:7 model d
  in
  Alcotest.(check int) "one draw counted" 1 (counter "eval.variation_draws" - before);
  same_bits "= Train.accuracy" (Train.accuracy model d) acc

let test_scorers_agree () =
  let net = Network.create ~hidden:3 (rng ()) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net and d = toy_dataset () in
  let spec = Variation.uniform 0.2 and draws = 5 in
  let under ?opts rng = Train.accuracy_under_variation ?opts ~rng ~spec ~draws model d in
  let y = Yield.estimate ~rng:(Rng.create ~seed:3) ~spec ~threshold:0.5 ~draws model d in
  same_bits "yield mean_acc" (under (Rng.create ~seed:3)) y.Yield.mean_acc;
  (* The rows draw from one stream in declaration order; the last,
     [All_families], runs at the default [varied]. *)
  let rows = Sensitivity.analyze ~rng:(Rng.create ~seed:4) ~level:0.2 ~draws net d in
  let r = Rng.create ~seed:4 in
  List.iter
    (fun (row : Sensitivity.row) ->
      let opts = { Batch.default with varied = Sensitivity.varied row.family } in
      same_bits (Sensitivity.family_name row.family) (under ~opts r) row.accuracy)
    rows

(* A row's [drop] is nominal minus varied accuracy: a loss prints as a
   positive drop. *)
let test_sensitivity_report_drop () =
  let row = { Sensitivity.family = Sensitivity.Filter_rc; accuracy = 0.8; drop = 0.017 } in
  let line = Sensitivity.report [ row ] in
  Alcotest.(check bool) ("a loss reads positive: " ^ line) true
    (Str_contains.contains line "(drop +0.017)")

(* Search ------------------------------------------------------------------------ *)

let test_random_genome_ranges () =
  let r = rng () in
  for _ = 1 to 100 do
    let g = Search.random_genome r in
    Alcotest.(check bool) "hidden range" true (g.Search.hidden >= 2 && g.Search.hidden <= 10)
  done

let test_describe_genome () =
  let g = { Search.hidden = 4; order = Filter_layer.Second; use_va = true; use_at = false } in
  Alcotest.(check string) "description" "hidden=4 SO-LF +VA" (Search.describe_genome g)

let test_pareto_front () =
  let mk acc dev =
    {
      Search.genome = { Search.hidden = dev; order = Filter_layer.First; use_va = false; use_at = false };
      val_acc = acc;
      test_acc = acc;
      devices = dev;
      power_mw = 0.1;
    }
  in
  let cands = [ mk 0.9 100; mk 0.8 50; mk 0.7 80 (* dominated *); mk 0.6 30 ] in
  let front = Search.pareto_front cands in
  Alcotest.(check int) "three survive" 3 (List.length front);
  Alcotest.(check bool) "dominated excluded" true
    (not (List.exists (fun c -> c.Search.devices = 80) front));
  (* sorted by devices *)
  let devs = List.map (fun c -> c.Search.devices) front in
  Alcotest.(check (list int)) "sorted" [ 30; 50; 100 ] devs

let test_search_smoke () =
  let cfg = Config.of_scale Config.Smoke in
  let cfg = { cfg with Config.dataset_n = Some 40 } in
  let candidates = Search.random_search cfg ~dataset:"GPOVY" ~seed:0 ~budget:2 in
  Alcotest.(check int) "anchor + budget" 3 (List.length candidates);
  (* sorted best-first *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Search.val_acc >= b.Search.val_acc && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted candidates);
  List.iter
    (fun c -> Alcotest.(check bool) "devices positive" true (c.Search.devices > 0))
    candidates

(* The anchor genome is the Full variant's design: the same split
   (training copies augmented, validation clean), the same initial
   circuit and training stream, so the same trained circuit. *)
let test_search_anchor_is_full () =
  let cfg = { (Config.of_scale Config.Smoke) with Config.dataset_n = Some 40 } in
  let dataset = "GPOVY" and seed = 0 in
  let split, classes = Experiments.load_split cfg ~dataset ~seed in
  let anchor =
    {
      Search.hidden = Stdlib.min 8 (Stdlib.max 4 (2 * classes));
      order = Filter_layer.Second;
      use_va = true;
      use_at = true;
    }
  in
  let c = Search.evaluate cfg ~dataset ~seed anchor in
  let run = Experiments.train_run cfg ~dataset ~variant:Experiments.Full ~seed in
  let net = match run.Experiments.model with Model.Circuit n -> n | Model.Reference _ -> assert false in
  Alcotest.(check int) "devices" (Hardware.total (Hardware.of_network net)) c.Search.devices;
  same_bits "power (trained conductances)" (Hardware.power_mw net) c.Search.power_mw;
  (* [train_run]'s clean_var_acc draws from the seed+4000 stream after
     the perturbed and augmented protocols; the search scores each
     split on a fresh seed+4000 stream. *)
  let score d =
    Train.accuracy_under_variation
      ~rng:(Rng.create ~seed:(seed + 4000))
      ~spec:(Variation.uniform cfg.Config.eval_level) ~draws:cfg.Config.eval_draws
      run.Experiments.model d
  in
  same_bits "test_acc" (score split.Pnc_data.Dataset.test) c.Search.test_acc;
  same_bits "val_acc" (score split.Pnc_data.Dataset.valid) c.Search.val_acc

(* The search scores at the configured precision tier, as [train_run]
   does: a `Fast config's [evaluate] runs its scoring forwards `Fast.
   (Model selection inside training stays `Exact, as in [train_run].) *)
let test_search_evaluate_precision () =
  let cfg =
    { (Config.of_scale Config.Smoke) with Config.dataset_n = Some 40; precision = `Fast }
  in
  let genome = { Search.hidden = 4; order = Filter_layer.Second; use_va = false; use_at = false } in
  let tiers = ref [] in
  let write ~t:_ ~seq:_ ~name fields =
    if name = "eval.batch" then
      tiers :=
        (match List.assoc_opt "precision" fields with Some (Obs.Str s) -> s | _ -> "missing")
        :: !tiers
  in
  Obs.set_sink (Some { Obs.write; flush = ignore });
  Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () ->
      ignore (Search.evaluate cfg ~dataset:"GPOVY" ~seed:0 genome));
  Alcotest.(check bool) "evaluate scored at the fast tier" true (List.mem "fast" !tiers)

let () =
  Alcotest.run "pnc_export_ext"
    [
      ( "deck",
        [
          Alcotest.test_case "fmt_si" `Quick test_fmt_si;
          Alcotest.test_case "cards" `Quick test_deck_renders_cards;
          Alcotest.test_case "summary" `Quick test_component_summary;
        ] );
      ( "netlist-export",
        [
          Alcotest.test_case "crossbar = Eq. 1" `Quick test_crossbar_export_matches_eq1;
          Alcotest.test_case "device inventory" `Quick test_crossbar_export_device_inventory;
          Alcotest.test_case "filter cutoff agrees" `Quick test_filter_stage_export_cutoff;
          Alcotest.test_case "network deck" `Quick test_network_deck_nonempty;
        ] );
      ( "yield",
        [
          Alcotest.test_case "bounds and fields" `Quick test_yield_bounds_and_fields;
          Alcotest.test_case "threshold monotone" `Quick test_yield_threshold_monotone;
          Alcotest.test_case "reference single instance" `Quick test_yield_reference_single_instance;
          Alcotest.test_case "sweep levels" `Quick test_yield_sweep_levels;
          Alcotest.test_case "describe" `Quick test_yield_describe;
        ] );
      ( "one sampler",
        [
          Alcotest.test_case "reference = one instance" `Quick test_reference_one_instance;
          Alcotest.test_case "yield, sensitivity = scorer" `Quick test_scorers_agree;
          Alcotest.test_case "sensitivity report: a loss is a positive drop" `Quick
            test_sensitivity_report_drop;
        ] );
      ( "search",
        [
          Alcotest.test_case "genome ranges" `Quick test_random_genome_ranges;
          Alcotest.test_case "describe genome" `Quick test_describe_genome;
          Alcotest.test_case "pareto front" `Quick test_pareto_front;
          Alcotest.test_case "random search smoke" `Slow test_search_smoke;
          Alcotest.test_case "anchor = Full run" `Slow test_search_anchor_is_full;
          Alcotest.test_case "evaluate scores at the configured precision" `Quick
            test_search_evaluate_precision;
        ] );
    ]

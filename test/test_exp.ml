(* Tests for the experiment harness: configs, the training grid, and
   each artifact builder at smoke scale. *)

module Config = Pnc_exp.Config
module E = Pnc_exp.Experiments
module Grid = Pnc_grid.Grid

let smoke_cfg () =
  let cfg = Config.of_scale Config.Smoke in
  { cfg with Config.datasets = [ "GPOVY" ]; dataset_n = Some 50 }

let test_scales () =
  List.iter
    (fun (name, scale) ->
      Alcotest.(check string) "roundtrip" name (Config.scale_name (Config.scale_of_string name));
      let cfg = Config.of_scale scale in
      Alcotest.(check bool) "has seeds" true (cfg.Config.seeds <> []);
      Alcotest.(check bool) "top_k <= seeds" true
        (cfg.Config.top_k <= List.length cfg.Config.seeds))
    [ ("smoke", Config.Smoke); ("fast", Config.Fast); ("paper", Config.Paper) ]

let test_scale_of_string_invalid () =
  match Config.scale_of_string "huge" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_paper_config_matches_paper () =
  let cfg = Config.of_scale Config.Paper in
  Alcotest.(check int) "10 seeds" 10 (List.length cfg.Config.seeds);
  Alcotest.(check int) "top 3" 3 cfg.Config.top_k;
  Alcotest.(check (float 0.)) "lr 0.1" 0.1 cfg.Config.train_va.Pnc_core.Train.lr;
  Alcotest.(check int) "patience 100" 100 cfg.Config.train_va.Pnc_core.Train.patience;
  Alcotest.(check (float 0.)) "min lr 1e-5" 1e-5 cfg.Config.train_va.Pnc_core.Train.min_lr;
  Alcotest.(check int) "15 datasets" 15 (List.length cfg.Config.datasets)

let test_variant_names () =
  Alcotest.(check int) "fig7 variants" 5 (List.length E.fig7_variants);
  Alcotest.(check int) "table1 variants" 3 (List.length E.table1_variants);
  Alcotest.(check string) "full name" "VA+SO-LF+AT" (E.variant_name E.Full)

(* Augmentation touches the training split alone: validation and test
   stay bit-equal to the clean split's, and the training split keeps
   its clean rows and gains [aug_copies] augmented copies of each. *)
let test_load_split_augments_train_only () =
  let module D = Pnc_data.Dataset in
  let cfg = { (smoke_cfg ()) with Config.aug_copies = 2 } in
  let policy = Pnc_augment.Tune.random_policy (Pnc_util.Rng.create ~seed:3) in
  let clean, classes = E.load_split cfg ~dataset:"GPOVY" ~seed:0 in
  let aug, aug_classes = E.load_split ~augment:policy cfg ~dataset:"GPOVY" ~seed:0 in
  let bits (d : D.t) = (Array.map (Array.map Int64.bits_of_float) d.D.x, d.D.y) in
  let head n (d : D.t) =
    bits { d with D.x = Array.sub d.D.x 0 n; y = Array.sub d.D.y 0 n }
  in
  Alcotest.(check int) "classes" classes aug_classes;
  Alcotest.(check bool) "valid bit-equal" true (bits clean.D.valid = bits aug.D.valid);
  Alcotest.(check bool) "test bit-equal" true (bits clean.D.test = bits aug.D.test);
  let n = D.n_samples clean.D.train in
  Alcotest.(check int) "train gains aug_copies copies" (3 * n) (D.n_samples aug.D.train);
  Alcotest.(check bool) "clean rows first" true (bits clean.D.train = head n aug.D.train)

let test_train_run_record () =
  let cfg = smoke_cfg () in
  let r = E.train_run cfg ~dataset:"GPOVY" ~variant:E.Base ~seed:0 in
  Alcotest.(check string) "dataset" "GPOVY" r.E.dataset;
  Alcotest.(check bool) "epochs > 0" true (r.E.epochs > 0);
  List.iter
    (fun (name, v) ->
      if v < 0. || v > 1. then Alcotest.failf "%s out of [0,1]: %f" name v)
    [
      ("clean", r.E.clean_acc);
      ("clean_var", r.E.clean_var_acc);
      ("aug_var", r.E.aug_var_acc);
      ("pert_var", r.E.pert_var_acc);
    ]

let test_grid_and_artifacts () =
  let cfg = smoke_cfg () in
  let variants = E.Reference :: E.fig7_variants in
  let grid = Grid.run ~dir:(Filename.temp_dir "pnc_exp_grid" "") cfg ~variants in
  Alcotest.(check int) "grid size = datasets*variants*seeds"
    (List.length cfg.Config.datasets * List.length variants * List.length cfg.Config.seeds)
    (List.length grid);
  (* Table I *)
  let t1 = E.table1_of_grid cfg grid in
  Alcotest.(check int) "t1 rows = datasets + avg" (List.length cfg.Config.datasets + 1)
    (List.length t1);
  let last = List.nth t1 (List.length t1 - 1) in
  Alcotest.(check string) "avg row" "Average" last.E.t1_dataset;
  (* Table III *)
  let t3 = E.table3_of_grid cfg grid in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (row.E.t3_dataset ^ ": adapt has more devices")
        true
        (Pnc_core.Hardware.total row.E.adapt_counts > Pnc_core.Hardware.total row.E.base_counts);
      Alcotest.(check bool)
        (row.E.t3_dataset ^ ": adapt uses less power")
        true (row.E.adapt_power_mw < row.E.base_power_mw))
    t3;
  (* Fig 5 and Fig 7 *)
  let f5 = E.fig5_of_grid cfg grid in
  Alcotest.(check bool) "fig5 cells in range" true
    (f5.E.f5_clean.E.mean >= 0. && f5.E.f5_pert_var.E.mean <= 1.);
  let f7 = E.fig7_of_grid cfg grid in
  Alcotest.(check int) "fig7 bars" 5 (List.length f7)

(* Printing paths: fabricate a grid (no training) and render every
   artifact; formatting must not raise on any input shape. *)
let fake_grid cfg =
  let rng = Pnc_util.Rng.create ~seed:1 in
  List.concat_map
    (fun dataset ->
      List.concat_map
        (fun variant ->
          List.map
            (fun seed ->
              let model =
                match variant with
                | E.Reference ->
                    Pnc_core.Model.Reference (Pnc_core.Elman.create rng ~inputs:1 ~classes:2)
                | E.Base | E.Va | E.At ->
                    Pnc_core.Model.Circuit
                      (Pnc_core.Network.create ~hidden:2 rng Pnc_core.Network.Ptpnc ~inputs:1
                         ~classes:2)
                | E.So_lf | E.Full | E.Ni ->
                    Pnc_core.Model.Circuit
                      (Pnc_core.Network.create ~hidden:4 rng Pnc_core.Network.Adapt ~inputs:1
                         ~classes:2)
              in
              {
                E.dataset;
                variant;
                seed;
                model;
                clean_acc = 0.5 +. (0.01 *. float_of_int seed);
                clean_var_acc = 0.5;
                aug_var_acc = 0.45;
                pert_var_acc = 0.4;
                corr_var_acc = 0.42;
                train_seconds = 0.1;
                epochs = 10;
              })
            cfg.Config.seeds)
        (E.Reference :: E.fig7_variants))
    cfg.Config.datasets

let test_print_paths_do_not_raise () =
  let cfg = smoke_cfg () in
  let grid = fake_grid cfg in
  E.print_table1 (E.table1_of_grid cfg grid);
  E.print_fig5 (E.fig5_of_grid cfg grid);
  E.print_fig7 (E.fig7_of_grid cfg grid);
  E.print_table3 (E.table3_of_grid cfg grid);
  E.print_fig6 (E.fig6 ());
  E.print_table2 [ ("model", 0.001) ]

let test_variation_sweep_on_fake_grid () =
  let cfg = smoke_cfg () in
  let grid = fake_grid cfg in
  let rows = E.variation_sweep_of_grid ~levels:[ 0.; 0.1 ] ~threshold:0.5 cfg grid in
  Alcotest.(check int) "two levels" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "yields in [0,1]" true
        (r.E.base_yield >= 0. && r.E.base_yield <= 1. && r.E.adapt_yield >= 0.
       && r.E.adapt_yield <= 1.))
    rows;
  E.print_variation_sweep ~threshold:0.5 rows

(* The sweep scores at the tier the grid was trained and scored at:
   under a `Fast config every batched forward reports "fast". *)
let test_variation_sweep_keeps_precision () =
  let module Obs = Pnc_obs.Obs in
  let cfg = { (smoke_cfg ()) with Config.precision = `Fast } in
  let grid = fake_grid cfg in
  let tiers = ref [] in
  let write ~t:_ ~seq:_ ~name fields =
    if name = "eval.batch" then
      tiers :=
        (match List.assoc_opt "precision" fields with Some (Obs.Str s) -> s | _ -> "missing")
        :: !tiers
  in
  Obs.set_sink (Some { Obs.write; flush = ignore });
  Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () ->
      ignore (E.variation_sweep_of_grid ~levels:[ 0.; 0.1 ] ~threshold:0.5 cfg grid));
  Alcotest.(check bool) "the sweep ran batched forwards" true (!tiers <> []);
  List.iter (Alcotest.(check string) "eval.batch precision" "fast") !tiers

(* A cell whose model header names impossible dimensions loads as
   [None] (and is recomputed), for a circuit and an Elman cell alike. *)
let test_bad_cell_dimensions () =
  let module Ckpt = Pnc_ckpt.Ckpt in
  let module Json = Pnc_obs.Obs.Json in
  let cfg = smoke_cfg () in
  let path = Filename.temp_file "cell" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  List.iter
    (fun (r : E.run) ->
      let load () =
        E.load_cell ~path cfg ~dataset:r.E.dataset ~variant:r.E.variant ~seed:r.E.seed
      in
      E.save_cell ~path cfg r;
      Alcotest.(check bool) "intact cell loads" true (load () <> None);
      let ck = Ckpt.load_exn ~path in
      List.iter
        (fun (key, v) ->
          let meta =
            List.map (fun (k, x) -> if k = key then (k, Json.Num v) else (k, x)) ck.Ckpt.meta
          in
          Ckpt.save ~path ~kind:ck.Ckpt.kind ~meta ~sections:ck.Ckpt.sections;
          match load () with
          | None -> ()
          | Some _ -> Alcotest.failf "%s %s %g loaded" (E.variant_tag r.E.variant) key v
          | exception e ->
              Alcotest.failf "%s %s %g raised %s" (E.variant_tag r.E.variant) key v
                (Printexc.to_string e))
        [ ("hidden", 0.); ("classes", 0.); ("hidden", 1e300) ])
    (List.filter
       (fun (r : E.run) -> r.E.variant = E.Reference || r.E.variant = E.Full)
       (fake_grid cfg))

let test_fig6_entries () =
  let entries = E.fig6 () in
  Alcotest.(check int) "original + 5 transforms" 6 (List.length entries);
  let _, original = List.hd entries in
  List.iter
    (fun (_, s) -> Alcotest.(check int) "same length" (Array.length original) (Array.length s))
    entries

let test_paper_table1_embedded () =
  Alcotest.(check int) "16 rows" 16 (List.length E.paper_table1);
  let _, e, b, a = List.nth E.paper_table1 15 in
  Alcotest.(check (float 1e-9)) "avg elman" 0.501 e;
  Alcotest.(check (float 1e-9)) "avg ptpnc" 0.582 b;
  Alcotest.(check (float 1e-9)) "avg adapt" 0.726 a

let test_mu_survey_shape () =
  let xs = E.mu_survey () in
  Alcotest.(check bool) "non-empty" true (xs <> []);
  let lo, hi = Pnc_core.Coupling.mu_range xs in
  Alcotest.(check bool) "band" true (lo >= 0.9 && hi <= 1.4)

let () =
  Alcotest.run "pnc_exp"
    [
      ( "config",
        [
          Alcotest.test_case "scales" `Quick test_scales;
          Alcotest.test_case "invalid scale" `Quick test_scale_of_string_invalid;
          Alcotest.test_case "paper protocol" `Quick test_paper_config_matches_paper;
        ] );
      ( "grid",
        [
          Alcotest.test_case "variant names" `Quick test_variant_names;
          Alcotest.test_case "load_split augments the training split only" `Quick
            test_load_split_augments_train_only;
          Alcotest.test_case "train_run record" `Slow test_train_run_record;
          Alcotest.test_case "grid + artifacts" `Slow test_grid_and_artifacts;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "print paths" `Quick test_print_paths_do_not_raise;
          Alcotest.test_case "variation sweep (fake grid)" `Quick test_variation_sweep_on_fake_grid;
          Alcotest.test_case "variation sweep keeps the precision tier" `Quick
            test_variation_sweep_keeps_precision;
          Alcotest.test_case "bad cell dimensions -> None" `Quick test_bad_cell_dimensions;
          Alcotest.test_case "fig6 entries" `Quick test_fig6_entries;
          Alcotest.test_case "paper table embedded" `Quick test_paper_table1_embedded;
          Alcotest.test_case "mu survey" `Quick test_mu_survey_shape;
        ] );
    ]

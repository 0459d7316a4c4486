module Rng = Pnc_util.Rng
module Stats = Pnc_util.Stats
module Table = Pnc_util.Table
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Augment = Pnc_augment.Augment
module Model = Pnc_core.Model
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Hardware = Pnc_core.Hardware
module Coupling = Pnc_core.Coupling
module Obs = Pnc_obs.Obs
module Json = Pnc_obs.Obs.Json
module Ckpt = Pnc_ckpt.Ckpt
module Persist = Pnc_core.Persist

type variant = Reference | Base | Va | At | So_lf | Full | Ni

let variant_name = function
  | Reference -> "Elman RNN"
  | Base -> "pTPNC (baseline)"
  | Va -> "VA"
  | At -> "AT"
  | So_lf -> "SO-LF"
  | Full -> "VA+SO-LF+AT"
  | Ni -> "+NI"

(* Stable lowercase tags for cache keys and checkpoint metadata (the
   display names above carry spaces and parentheses). *)
let variant_tag = function
  | Reference -> "reference"
  | Base -> "base"
  | Va -> "va"
  | At -> "at"
  | So_lf -> "so_lf"
  | Full -> "full"
  | Ni -> "ni"

let table1_variants = [ Reference; Base; Full ]
let fig7_variants = [ Base; Va; At; So_lf; Full ]

(* The ablation CLI's variant set: the paper's Fig. 7 ladder plus the
   noise-injection-trained column. [fig7_variants] itself stays
   unchanged — the Fig. 7 artifact and its cached grids are pinned by
   tests. *)
let ablate_variants = fig7_variants @ [ Ni ]

(* The correlated operating point used by the [+NI] training spec and
   by the [corr_var_acc] metric: the config's spec when given, else the
   library default. *)
let corr_of_cfg cfg = Option.value cfg.Config.corr ~default:Variation.default_corr

type run = {
  dataset : string;
  variant : variant;
  seed : int;
  model : Model.t;
  clean_acc : float;
  clean_var_acc : float;
  aug_var_acc : float;
  pert_var_acc : float;
  corr_var_acc : float;
  train_seconds : float;
  epochs : int;
}

(* One training recipe ------------------------------------------------------ *)

type family = Rnn | Circuit of Network.arch

type recipe = {
  family : family;
  hidden : int;
  va : bool;
  at : Augment.policy option;
  ni : bool;
}

(* Architecture sizing: the baseline circuits of Table III carry roughly
   one filter channel per class in the hidden layer; the proposed design
   doubles the hidden width (the paper reports ~1.9x devices). The
   reference RNN keeps Elman.create's default width. *)
let recipe ~classes variant =
  let family, hidden =
    match variant with
    | Reference -> (Rnn, 8)
    | Base | Va | At -> (Circuit Network.Ptpnc, Stdlib.max 2 classes)
    | So_lf | Full | Ni -> (Circuit Network.Adapt, Stdlib.min 8 (Stdlib.max 4 (2 * classes)))
  in
  {
    family;
    hidden;
    va = List.mem variant [ Va; Full; Ni ];
    at = (if List.mem variant [ At; Full; Ni ] then Some Augment.default_policy else None);
    ni = variant = Ni;
  }

let load_split ?augment cfg ~dataset ~seed =
  let raw = Registry.load ?n:cfg.Config.dataset_n ~seed dataset in
  let split = Dataset.preprocess (Rng.create ~seed:(seed + 1000)) raw in
  (* Augment the training split only: model selection must see the
     clean validation data, or the augmentation policy leaks into the
     eval protocol. *)
  let aug policy =
    Augment.augment_dataset (Rng.create ~seed:(seed + 2000)) policy
      ~copies:cfg.Config.aug_copies split.Dataset.train
  in
  ((match augment with None -> split | Some p -> { split with Dataset.train = aug p }),
   raw.Dataset.n_classes)

type training = {
  tr_split : Dataset.split;
  tr_model : Model.t;
  tr_cfg : Train.config;
  tr_seed : int;
}

let prepare cfg ~dataset ~seed recipe_of =
  let r = recipe_of ~classes:(Registry.find dataset).Registry.n_classes in
  let split, classes = load_split ?augment:r.at cfg ~dataset ~seed in
  let rng = Rng.create ~seed:(seed + 77) in
  let model =
    match r.family with
    | Rnn -> Model.Reference (Elman.create ~hidden:r.hidden rng ~inputs:1 ~classes)
    | Circuit arch -> Model.Circuit (Network.create ~hidden:r.hidden rng arch ~inputs:1 ~classes)
  in
  let train_cfg = if r.va then cfg.Config.train_va else cfg.Config.train_base in
  (* Noise injection keeps the rest of the recipe and trains through
     correlated perturbed realizations with straight-through gradients
     to the clean parameters. *)
  let train_cfg =
    if r.ni then
      {
        train_cfg with
        Train.variation =
          { train_cfg.Train.variation with Variation.corr = Some (corr_of_cfg cfg) };
        noise_injection = true;
        antithetic = true;
      }
    else train_cfg
  in
  { tr_split = split; tr_model = model; tr_cfg = train_cfg; tr_seed = seed }

let fit ?checkpoint_every ?checkpoint_path ?resume_from ?die_at_epoch t =
  Train.train ~rng:(Rng.create ~seed:(t.tr_seed + 3000)) ?checkpoint_every ?checkpoint_path
    ?resume_from ?die_at_epoch t.tr_cfg t.tr_model t.tr_split

let train_run ?pool ?checkpoint_every ?checkpoint_path ?resume_from ?die_at_epoch
    cfg ~dataset ~variant ~seed =
  let t = prepare cfg ~dataset ~seed (recipe variant) in
  let split = t.tr_split and model = t.tr_model in
  let (history, dt) =
    Pnc_util.Timer.time (fun () ->
        fit ?checkpoint_every ?checkpoint_path ?resume_from ?die_at_epoch t)
  in
  (* Evaluation protocols under +-10% component variation; the reference
     RNN is scored as its one deterministic instance. *)
  let spec = Variation.uniform cfg.Config.eval_level in
  let erng = Rng.create ~seed:(seed + 4000) in
  let prng = Rng.create ~seed:(seed + 5000) in
  let test = split.Dataset.test in
  let aug_test =
    Dataset.concat test (Augment.perturb_dataset prng Augment.default_policy test)
  in
  let pert_test = Augment.perturb_dataset prng Augment.default_policy test in
  (* The configured tier flows into every no-grad evaluation below; a
     `Fast run keys its cells separately via the fingerprint. *)
  let opts = { Pnc_core.Batch.default with precision = cfg.Config.precision } in
  let under_variation ?(rng = erng) ?(spec = spec) ?(draws = cfg.Config.eval_draws) d =
    Train.accuracy_under_variation ~opts ?pool ~rng ~spec ~draws model d
  in
  (* Accuracy under spatially correlated variation (every variant gets
     the column, trained with NI or not). The draw stream comes from a
     fresh seed offset (+7000) so the pre-existing metrics keep
     consuming exactly the streams they always did. Correlated draws
     have higher estimator variance than i.i.d. ones (whole regions of
     the eps field move together), so this metric uses 4x the i.i.d.
     draw budget. *)
  let corr_var_acc =
    under_variation
      ~rng:(Rng.create ~seed:(seed + 7000))
      ~spec:{ spec with Variation.corr = Some (corr_of_cfg cfg) }
      ~draws:(4 * cfg.Config.eval_draws) test
  in
  (* The other three protocols share [erng], in this order. *)
  let pert_var_acc = under_variation pert_test in
  let aug_var_acc = under_variation aug_test in
  let clean_var_acc = under_variation test in
  {
    dataset;
    variant;
    seed;
    model;
    clean_acc = Train.accuracy ~opts model test;
    clean_var_acc;
    aug_var_acc;
    pert_var_acc;
    corr_var_acc;
    train_seconds = dt;
    epochs = history.Train.epochs_run;
  }

(* On-disk cell cache ---------------------------------------------------- *)

let stale_cells_counter = Obs.Counter.make "grid.stale_cells"

let all_variants = Reference :: fig7_variants

(* Canonical cell enumeration: dataset-major, then variant, then seed.
   The grid driver (Pnc_grid) walks and merges in this order, so merged
   tables never depend on which worker computed a cell or when it
   finished. *)
let grid_keys cfg ~variants =
  List.concat_map
    (fun dataset ->
      List.concat_map
        (fun variant -> List.map (fun seed -> (dataset, variant, seed)) cfg.Config.seeds)
        variants)
    cfg.Config.datasets

(* One file per (config fingerprint, dataset, variant, seed); reshaping
   the grid (seeds, datasets, variants) reuses cells, any change to a
   cell-affecting knob changes the digest. *)
let cell_digest cfg ~dataset ~variant ~seed =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ Config.fingerprint cfg; dataset; variant_tag variant; string_of_int seed ]))

let cell_path ~dir cfg ~dataset ~variant ~seed =
  Filename.concat dir ("cell-" ^ cell_digest cfg ~dataset ~variant ~seed ^ ".ckpt")

(* Adding a metric changes the F64 section length, which the decode
   length check below treats as stale: pre-existing cached cells are
   recomputed (never misread) the first time they are loaded. *)
let metric_names =
  [
    "clean_acc";
    "clean_var_acc";
    "aug_var_acc";
    "pert_var_acc";
    "corr_var_acc";
    "train_seconds";
    "epochs";
  ]

let save_cell ~path cfg (r : run) =
  let meta =
    Persist.model_meta r.model
    @ [
        ("dataset", Json.String r.dataset);
        ("variant", Json.String (variant_tag r.variant));
        ("seed", Json.Num (float_of_int r.seed));
        ("fingerprint", Json.String (Config.fingerprint cfg));
      ]
  in
  let metrics =
    [|
      r.clean_acc; r.clean_var_acc; r.aug_var_acc; r.pert_var_acc; r.corr_var_acc;
      r.train_seconds; float_of_int r.epochs;
    |]
  in
  Ckpt.save ~path ~kind:"grid-cell" ~meta
    ~sections:
      (Persist.param_sections r.model
      @ [ ("metrics", Ckpt.F64 { rows = 1; cols = List.length metric_names; data = metrics }) ])

(* [None] on any failure — a missing, corrupt or stale cache entry means
   the cell is recomputed (and rewritten), never trusted. *)
let decode_cell ~path cfg ~dataset ~variant ~seed =
  let ( let* ) o f = match o with Some v -> f v | None -> None in
  let* ck = match Ckpt.load ~path with Ok ck -> Some ck | Error _ -> None in
  let* () = if ck.Ckpt.kind = "grid-cell" then Some () else None in
  let check field expect =
    if Ckpt.meta_field ck field = Some (Json.String expect) then Some () else None
  in
  let* () = check "fingerprint" (Config.fingerprint cfg) in
  let* () = check "dataset" dataset in
  let* () = check "variant" (variant_tag variant) in
  let* () =
    if Ckpt.meta_field ck "seed" = Some (Json.Num (float_of_int seed)) then Some () else None
  in
  let* model = match Persist.model_of_meta ck.Ckpt.meta with Ok m -> Some m | Error _ -> None in
  let* () =
    match Persist.load_params_into model ck with Ok () -> Some () | Error _ -> None
  in
  let* m =
    match Ckpt.f64 ck "metrics" with
    | Ok m when Array.length m = List.length metric_names -> Some m
    | _ -> None
  in
  Some
    {
      dataset;
      variant;
      seed;
      model;
      clean_acc = m.(0);
      clean_var_acc = m.(1);
      aug_var_acc = m.(2);
      pert_var_acc = m.(3);
      corr_var_acc = m.(4);
      train_seconds = m.(5);
      epochs = int_of_float m.(6);
    }

(* A cell file that exists but does not decode — interrupted write,
   corruption, or a key mismatch — is surfaced (event + counter) so
   `grid status` can report it as stale instead of it hiding as
   "pending until the next full run". The decision is unchanged:
   recompute, never trust. *)
let load_cell ~path cfg ~dataset ~variant ~seed =
  let r = decode_cell ~path cfg ~dataset ~variant ~seed in
  if r = None && Sys.file_exists path then begin
    Obs.Counter.incr stale_cells_counter;
    if Obs.enabled () then
      Obs.emit "grid.cell.stale"
        [
          ("path", Obs.Str path);
          ("dataset", Obs.Str dataset);
          ("variant", Obs.Str (variant_tag variant));
          ("seed", Obs.Int seed);
        ]
  end;
  r

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* Streaming protocol ----------------------------------------------------- *)

module Scenario = Pnc_stream.Scenario
module Online = Pnc_stream.Online

type stream_run = {
  sr_run : run;
  sr_frozen : Online.result;
  sr_adapted : Online.result option;
}

let stream_run ?pool cfg ~scenario ~protocol (r : run) =
  if r.dataset <> scenario.Scenario.dataset then
    invalid_arg
      (Printf.sprintf "Experiments.stream_run: a %s model over a %s stream" r.dataset
         scenario.Scenario.dataset);
  Obs.Span.with_ "stream" @@ fun () ->
  let rz = Scenario.realize scenario in
  (* Same physical-instance policy as the offline protocols: ±eval_level
     component variation, which the reference RNN ignores. seed+6000
     keeps the streaming eval stream disjoint from the train/eval/perturb
     streams of train_run. *)
  let spec =
    if cfg.Config.eval_level > 0. then Some (Variation.uniform cfg.Config.eval_level) else None
  in
  let opts = { Pnc_core.Batch.default with precision = cfg.Config.precision } in
  let eval_rng () = Rng.create ~seed:(r.seed + 6000) in
  let snap = Online.snapshot_params r.model in
  let frozen =
    Online.eval ~opts ?pool ?spec ~rng:(eval_rng ())
      { protocol with Online.adapt = Online.Off }
      r.model rz
  in
  let adapted =
    if protocol.Online.adapt = Online.Off then None
    else begin
      let a =
        Online.eval ~opts ?spec ~rng:(eval_rng ()) protocol r.model rz
      in
      (* Leave the cell's trained weights untouched for any later
         consumer (the cache holds the un-adapted model). *)
      Online.restore_params r.model snap;
      Some a
    end
  in
  { sr_run = r; sr_frozen = frozen; sr_adapted = adapted }

(* Deterministic accuracy-over-time table: no wall-clock columns, so two
   runs of the same protocol print byte-identical tables whatever the
   pool size (the CI stream job cmp's them). *)
let print_stream ~scenario ~protocol sr =
  Printf.printf "Streaming: %s\n" (Scenario.fingerprint scenario);
  Printf.printf "Protocol:  %s\n" (Online.fingerprint protocol);
  Printf.printf "Model:     %s (seed %d, clean acc %.4f)\n"
    (variant_name sr.sr_run.variant) sr.sr_run.seed sr.sr_run.clean_acc;
  let adapted = sr.sr_adapted <> None in
  let t =
    Table.create
      ~header:
        ([ "Window"; "Samples"; "Frozen acc" ] @ if adapted then [ "Adapted acc" ] else [])
  in
  Array.iteri
    (fun i (p : Online.point) ->
      let mark =
        match sr.sr_frozen.Online.first_drift_window with
        | Some w when w = i -> " *drift"
        | _ -> ""
      in
      Table.add_row t
        ([
           Printf.sprintf "%d%s" p.Online.w mark;
           Printf.sprintf "%d..%d" p.Online.start (p.Online.start + p.Online.len - 1);
           Printf.sprintf "%.4f" p.Online.acc;
         ]
        @
        match sr.sr_adapted with
        | Some a -> [ Printf.sprintf "%.4f" a.Online.points.(i).Online.acc ]
        | None -> []))
    sr.sr_frozen.Online.points;
  Table.print t;
  let pp_opt_f = function Some a -> Printf.sprintf "%.4f" a | None -> "n/a" in
  let pp_opt_i = function Some i -> string_of_int i | None -> "none" in
  let line tag (r : Online.result) =
    Printf.printf
      "%s: overall %.4f | pre-drift %s | post-drift %s | detected at %s | latency %s\n" tag
      r.Online.overall_acc (pp_opt_f r.Online.pre_drift_acc) (pp_opt_f r.Online.post_drift_acc)
      (pp_opt_i r.Online.detected_at)
      (pp_opt_i r.Online.detect_latency)
  in
  line "frozen " sr.sr_frozen;
  Option.iter (line "adapted") sr.sr_adapted;
  print_newline ()

(* ---------------------------------------------------------------------- *)

type cell = { mean : float; std : float }

let cell_of xs = { mean = Stats.mean xs; std = Stats.std xs }

(* Paper protocol: keep the top-k seeds by clean test accuracy, report
   the evaluation metric across them. *)
let top_k_by_clean cfg runs =
  let sorted = List.sort (fun a b -> compare b.clean_acc a.clean_acc) runs in
  List.filteri (fun i _ -> i < cfg.Config.top_k) sorted

let slice runs ~dataset ~variant =
  List.filter (fun r -> r.dataset = dataset && r.variant = variant) runs

let metric_cell cfg runs ~dataset ~variant ~metric =
  let rs = top_k_by_clean cfg (slice runs ~dataset ~variant) in
  cell_of (Array.of_list (List.map metric rs))

type table1_row = { t1_dataset : string; elman : cell; ptpnc : cell; adapt : cell }

let table1_of_grid cfg runs =
  let metric r = r.aug_var_acc in
  let rows =
    List.map
      (fun dataset ->
        {
          t1_dataset = dataset;
          elman = metric_cell cfg runs ~dataset ~variant:Reference ~metric;
          ptpnc = metric_cell cfg runs ~dataset ~variant:Base ~metric;
          adapt = metric_cell cfg runs ~dataset ~variant:Full ~metric;
        })
      cfg.Config.datasets
  in
  let avg sel =
    {
      mean = Stats.mean (Array.of_list (List.map (fun r -> (sel r).mean) rows));
      std = Stats.mean (Array.of_list (List.map (fun r -> (sel r).std) rows));
    }
  in
  rows
  @ [
      {
        t1_dataset = "Average";
        elman = avg (fun r -> r.elman);
        ptpnc = avg (fun r -> r.ptpnc);
        adapt = avg (fun r -> r.adapt);
      };
    ]

let paper_table1 =
  [
    ("CBF", 0.683, 0.615, 0.877);
    ("DPTW", 0.507, 0.462, 0.700);
    ("FRT", 0.597, 0.514, 0.677);
    ("FST", 0.509, 0.540, 0.591);
    ("GPAS", 0.452, 0.564, 0.568);
    ("GPMVF", 0.637, 0.760, 0.900);
    ("GPOVY", 0.540, 0.881, 1.000);
    ("MPOAG", 0.560, 0.483, 0.654);
    ("MSRT", 0.261, 0.317, 0.531);
    ("PowerCons", 0.651, 0.797, 0.880);
    ("PPOC", 0.711, 0.664, 0.660);
    ("SRSCP2", 0.489, 0.519, 0.525);
    ("Slope", 0.559, 0.587, 0.765);
    ("SmoothS", 0.447, 0.653, 0.864);
    ("Symbols", 0.141, 0.369, 0.697);
    ("Average", 0.501, 0.582, 0.726);
  ]

let paper_row name =
  List.find_opt (fun (n, _, _, _) -> n = name) paper_table1

let print_table1 rows =
  print_endline "Table I - accuracy under +-10% variation on the augmented test set";
  print_endline "(paper-reported means in parentheses)";
  let t =
    Table.create
      ~header:[ "Dataset"; "Elman RNN (ref)"; "pTPNC (baseline)"; "ADAPT-pNC (ours)" ]
  in
  List.iter
    (fun r ->
      let paper = paper_row r.t1_dataset in
      let fmt cell paper_v =
        Printf.sprintf "%s%s"
          (Table.fmt_mean_std (cell.mean, cell.std))
          (match paper_v with Some v -> Printf.sprintf " (%.3f)" v | None -> "")
      in
      let p1, p2, p3 =
        match paper with
        | Some (_, a, b, c) -> (Some a, Some b, Some c)
        | None -> (None, None, None)
      in
      if r.t1_dataset = "Average" then Table.add_rule t;
      Table.add_row t
        [ r.t1_dataset; fmt r.elman p1; fmt r.ptpnc p2; fmt r.adapt p3 ])
    rows;
  Table.print t;
  print_newline ()

(* Table II ---------------------------------------------------------------- *)

let table2_epoch cfg ~dataset variant =
  let t = prepare cfg ~dataset ~seed:0 (recipe variant) in
  Train.epoch t.tr_cfg t.tr_model t.tr_split

let table2 ?(progress = fun _ -> ()) cfg =
  let sample_datasets =
    match cfg.Config.datasets with a :: b :: c :: _ -> [ a; b; c ] | l -> l
  in
  let time_variant variant =
    let times =
      List.map
        (fun dataset ->
          progress (Printf.sprintf "timing %s on %s" (variant_name variant) dataset);
          let epoch = table2_epoch cfg ~dataset variant in
          (* One warm-up epoch, then the timed mean of three. *)
          epoch ();
          Pnc_util.Timer.time_mean ~repeats:3 epoch)
        sample_datasets
    in
    Stats.mean (Array.of_list times)
  in
  List.map (fun v -> (variant_name v, time_variant v)) table1_variants

let print_table2 rows =
  print_endline "Table II - runtime of one full-batch training epoch (mean)";
  print_endline
    "(paper reports total avg runtime: Elman 2.345 ms, pTPNC 0.230 s, ADAPT-pNC 2.537 s;";
  print_endline
    " the ordering Elman << pTPNC < ADAPT-pNC is the reproduced quantity)";
  let t = Table.create ~header:[ "Model"; "Epoch runtime" ] in
  List.iter (fun (name, s) -> Table.add_row t [ name; Pnc_util.Timer.fmt_seconds s ]) rows;
  Table.print t;
  print_newline ()

(* Table III ----------------------------------------------------------------- *)

type table3_row = {
  t3_dataset : string;
  base_counts : Hardware.counts;
  base_power_mw : float;
  adapt_counts : Hardware.counts;
  adapt_power_mw : float;
}

let best_circuit cfg runs ~dataset ~variant =
  match top_k_by_clean cfg (slice runs ~dataset ~variant) with
  | { model = Model.Circuit net; _ } :: _ -> net
  | _ -> failwith ("no circuit run for " ^ dataset)

let table3_of_grid cfg runs =
  let rows =
    List.map
      (fun dataset ->
        let base = best_circuit cfg runs ~dataset ~variant:Base in
        let adapt = best_circuit cfg runs ~dataset ~variant:Full in
        {
          t3_dataset = dataset;
          base_counts = Hardware.of_network base;
          base_power_mw = Hardware.power_mw base;
          adapt_counts = Hardware.of_network adapt;
          adapt_power_mw = Hardware.power_mw adapt;
        })
      cfg.Config.datasets
  in
  let n = float_of_int (List.length rows) in
  let avg_count sel =
    let s = List.fold_left (fun acc r -> acc + sel r) 0 rows in
    int_of_float (Float.round (float_of_int s /. n))
  in
  let avg_f sel = List.fold_left (fun acc r -> acc +. sel r) 0. rows /. n in
  rows
  @ [
      {
        t3_dataset = "Average";
        base_counts =
          {
            Hardware.transistors = avg_count (fun r -> r.base_counts.Hardware.transistors);
            resistors = avg_count (fun r -> r.base_counts.Hardware.resistors);
            capacitors = avg_count (fun r -> r.base_counts.Hardware.capacitors);
          };
        base_power_mw = avg_f (fun r -> r.base_power_mw);
        adapt_counts =
          {
            Hardware.transistors = avg_count (fun r -> r.adapt_counts.Hardware.transistors);
            resistors = avg_count (fun r -> r.adapt_counts.Hardware.resistors);
            capacitors = avg_count (fun r -> r.adapt_counts.Hardware.capacitors);
          };
        adapt_power_mw = avg_f (fun r -> r.adapt_power_mw);
      };
    ]

let paper_table3_avg = (118, 228, 0.634, 0.058)

let print_table3 rows =
  print_endline "Table III - hardware cost: baseline pTPNC vs ADAPT-pNC";
  let t =
    Table.create
      ~header:
        [ "Dataset"; "#T b/p"; "#R b/p"; "#C b/p"; "#Total b/p"; "Power mW b/p" ]
  in
  List.iter
    (fun r ->
      if r.t3_dataset = "Average" then Table.add_rule t;
      Table.add_row t
        [
          r.t3_dataset;
          Printf.sprintf "%d/%d" r.base_counts.Hardware.transistors
            r.adapt_counts.Hardware.transistors;
          Printf.sprintf "%d/%d" r.base_counts.Hardware.resistors
            r.adapt_counts.Hardware.resistors;
          Printf.sprintf "%d/%d" r.base_counts.Hardware.capacitors
            r.adapt_counts.Hardware.capacitors;
          Printf.sprintf "%d/%d"
            (Hardware.total r.base_counts)
            (Hardware.total r.adapt_counts);
          Printf.sprintf "%.3f/%.3f" r.base_power_mw r.adapt_power_mw;
        ])
    rows;
  Table.print t;
  (match List.rev rows with
  | avg :: _ ->
      let pb, pp, wb, wp = paper_table3_avg in
      Printf.printf
        "ours: devices x%.2f, power %.0f%% saving | paper: devices x%.2f (%d->%d), power %.0f%% saving (%.3f->%.3f mW)\n\n"
        (float_of_int (Hardware.total avg.adapt_counts)
        /. float_of_int (Hardware.total avg.base_counts))
        (100. *. (1. -. (avg.adapt_power_mw /. avg.base_power_mw)))
        (float_of_int pp /. float_of_int pb)
        pb pp
        (100. *. (1. -. (wp /. wb)))
        wb wp
  | [] -> ())

(* Fig 5 ----------------------------------------------------------------------- *)

type fig5 = { f5_clean : cell; f5_var : cell; f5_pert_var : cell }

let fig5_of_grid cfg runs =
  let base = List.filter (fun r -> r.variant = Base) runs in
  let selected =
    List.concat_map (fun d -> top_k_by_clean cfg (slice base ~dataset:d ~variant:Base))
      cfg.Config.datasets
  in
  let arr metric = Array.of_list (List.map metric selected) in
  {
    f5_clean = cell_of (arr (fun r -> r.clean_acc));
    f5_var = cell_of (arr (fun r -> r.clean_var_acc));
    f5_pert_var = cell_of (arr (fun r -> r.pert_var_acc));
  }

let print_fig5 f =
  print_endline "Fig. 5 - no-variation-aware baseline degrades under variation";
  let t = Table.create ~header:[ "Condition"; "Accuracy (mean ± std)" ] in
  Table.add_row t [ "clean inputs, nominal components"; Table.fmt_mean_std (f.f5_clean.mean, f.f5_clean.std) ];
  Table.add_row t [ "clean inputs, ±10% components"; Table.fmt_mean_std (f.f5_var.mean, f.f5_var.std) ];
  Table.add_row t [ "perturbed inputs, ±10% components"; Table.fmt_mean_std (f.f5_pert_var.mean, f.f5_pert_var.std) ];
  Table.print t;
  print_newline ()

(* Fig 7 ----------------------------------------------------------------------- *)

type fig7_bar = { config_name : string; clean : cell; perturbed : cell }

let fig7_of_grid cfg runs =
  List.map
    (fun variant ->
      let selected =
        List.concat_map
          (fun d -> top_k_by_clean cfg (slice runs ~dataset:d ~variant))
          cfg.Config.datasets
      in
      let arr metric = Array.of_list (List.map metric selected) in
      {
        config_name = variant_name variant;
        clean = cell_of (arr (fun r -> r.clean_var_acc));
        perturbed = cell_of (arr (fun r -> r.pert_var_acc));
      })
    fig7_variants

let print_fig7 bars =
  print_endline "Fig. 7 - ablation under ±10% variation (mean across datasets)";
  let t = Table.create ~header:[ "Configuration"; "Clean data"; "Perturbed data" ] in
  List.iter
    (fun b ->
      Table.add_row t
        [
          b.config_name;
          Table.fmt_mean_std (b.clean.mean, b.clean.std);
          Table.fmt_mean_std (b.perturbed.mean, b.perturbed.std);
        ])
    bars;
  Table.print t;
  (match (bars, List.rev bars) with
  | base :: _, full :: _ ->
      Printf.printf
        "improvement over baseline: clean %+.1f%%, perturbed %+.1f%% (paper: +23.7%% / +24.4%%)\n\n"
        (100. *. (full.clean.mean -. base.clean.mean))
        (100. *. (full.perturbed.mean -. base.perturbed.mean))
  | _ -> ())

(* Variation sweep / yield (ablation beyond the paper's fixed 10%) ------------- *)

type sweep_row = {
  level : float;
  base_acc : cell;
  adapt_acc : cell;
  base_yield : float;
  adapt_yield : float;
}

let variation_sweep_of_grid ?(levels = [ 0.; 0.05; 0.1; 0.2; 0.3 ]) ?(threshold = 0.6)
    ?pool cfg runs =
  let module Yield = Pnc_core.Yield in
  let opts = { Pnc_core.Batch.default with precision = cfg.Config.precision } in
  let eval_variant variant level =
    let accs, yields =
      List.split
        (List.map
           (fun dataset ->
             match top_k_by_clean cfg (slice runs ~dataset ~variant) with
             | best :: _ ->
                 let split, _ = load_split cfg ~dataset ~seed:best.seed in
                 (* A fresh stream per level; [sweep_levels] owns the
                    level-0 rule. *)
                 let r =
                   List.assoc level
                     (Yield.sweep_levels ~opts ?pool
                        ~rng:(Rng.create ~seed:4242)
                        ~levels:[ level ] ~threshold ~draws:cfg.Config.eval_draws best.model
                        split.Dataset.test)
                 in
                 (r.Yield.mean_acc, r.Yield.yield)
             | [] -> (0., 0.))
           cfg.Config.datasets)
    in
    (cell_of (Array.of_list accs), Stats.mean (Array.of_list yields))
  in
  List.map
    (fun level ->
      let base_acc, base_yield = eval_variant Base level in
      let adapt_acc, adapt_yield = eval_variant Full level in
      { level; base_acc; adapt_acc; base_yield; adapt_yield })
    levels

let print_variation_sweep ~threshold rows =
  Printf.printf
    "Variation sweep (ablation): accuracy and yield (acc >= %.2f) vs process variation\n"
    threshold;
  let t =
    Table.create
      ~header:
        [ "Level"; "pTPNC acc"; "ADAPT acc"; "pTPNC yield"; "ADAPT yield" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Printf.sprintf "±%.0f%%" (100. *. r.level);
          Table.fmt_mean_std (r.base_acc.mean, r.base_acc.std);
          Table.fmt_mean_std (r.adapt_acc.mean, r.adapt_acc.std);
          Printf.sprintf "%.0f%%" (100. *. r.base_yield);
          Printf.sprintf "%.0f%%" (100. *. r.adapt_yield);
        ])
    rows;
  Table.print t;
  print_newline ()

(* Fig 6 ----------------------------------------------------------------------- *)

let fig6 ?(seed = 0) () =
  let raw = Registry.load ~seed "PowerCons" in
  let split = Dataset.preprocess (Rng.create ~seed:(seed + 1)) raw in
  let series = split.Dataset.train.Dataset.x.(0) in
  let rng = Rng.create ~seed:(seed + 2) in
  ("original", series)
  :: List.map
       (fun tr -> (Augment.describe tr, Augment.apply_transform rng tr series))
       Augment.default_policy.Augment.transforms

let sparkline series =
  let blocks = [| "_"; "."; ":"; "-"; "="; "+"; "*"; "#" |] in
  let lo = Pnc_util.Vec.min series and hi = Pnc_util.Vec.max series in
  let span = Float.max 1e-9 (hi -. lo) in
  String.concat ""
    (Array.to_list
       (Array.map
          (fun v ->
            let i = int_of_float ((v -. lo) /. span *. 7.99) in
            blocks.(Stdlib.max 0 (Stdlib.min 7 i)))
          series))

let print_fig6 entries =
  print_endline "Fig. 6 - augmentation techniques on a PowerCons series";
  List.iter
    (fun (name, series) -> Printf.printf "%-24s %s\n" name (sparkline series))
    entries;
  print_newline ()

(* mu survey and filter characterization --------------------------------------- *)

let mu_survey () = Coupling.survey ()

let print_mu_survey xs =
  print_endline "Coupling factor extraction (SPICE-lite, Sec. III-2)";
  let t = Table.create ~header:[ "R (ohm)"; "C (F)"; "R_load (ohm)"; "mu (fit)"; "mu (theory)"; "fit rms" ] in
  List.iter
    (fun e ->
      Table.add_row t
        [
          Printf.sprintf "%.0f" e.Coupling.r;
          Printf.sprintf "%.0e" e.Coupling.c;
          Printf.sprintf "%.0f" e.Coupling.r_load;
          Printf.sprintf "%.3f" e.Coupling.mu;
          Printf.sprintf "%.3f" (Coupling.mu_theory ~c:e.Coupling.c ~r_load:e.Coupling.r_load);
          Printf.sprintf "%.4f" e.Coupling.fit_rms;
        ])
    xs;
  Table.print t;
  let lo, hi = Coupling.mu_range xs in
  Printf.printf "mu range: [%.3f, %.3f] (paper: [1.0, 1.3])\n\n" lo hi

let filter_characterization () =
  print_endline "Fig. 4 side panels - printed filter characterization (SPICE-lite vs theory)";
  let module Circuit = Pnc_spice.Circuit in
  let module Ac = Pnc_spice.Ac in
  let module Filter = Pnc_signal.Filter in
  let t =
    Table.create
      ~header:[ "Stage"; "R (ohm)"; "C (F)"; "fc SPICE (Hz)"; "fc theory (Hz)" ]
  in
  List.iter
    (fun (r, c) ->
      (* first-order *)
      let circ = Circuit.create () in
      let vin = Circuit.node circ "in" and out = Circuit.node circ "out" in
      Circuit.vsource circ ~ac:1. vin Circuit.ground 0.;
      Circuit.resistor circ vin out r;
      Circuit.capacitor circ out Circuit.ground c;
      let fc = Ac.cutoff_hz circ ~probe:out in
      Table.add_row t
        [
          "1st order";
          Printf.sprintf "%.0f" r;
          Printf.sprintf "%.0e" c;
          Printf.sprintf "%.2f" fc;
          Printf.sprintf "%.2f" (Filter.cutoff_hz { Filter.r; c });
        ];
      (* second-order cascade (loaded) *)
      let circ2 = Circuit.create () in
      let vin = Circuit.node circ2 "in" in
      let m = Circuit.node circ2 "m" and out2 = Circuit.node circ2 "out" in
      Circuit.vsource circ2 ~ac:1. vin Circuit.ground 0.;
      Circuit.resistor circ2 vin m r;
      Circuit.capacitor circ2 m Circuit.ground c;
      Circuit.resistor circ2 m out2 r;
      Circuit.capacitor circ2 out2 Circuit.ground c;
      let fc2 = Ac.cutoff_hz circ2 ~probe:out2 in
      let ideal =
        Filter.cutoff_2nd_hz { Filter.stage1 = { Filter.r; c }; stage2 = { Filter.r; c } }
      in
      Table.add_row t
        [
          "2nd order";
          Printf.sprintf "%.0f" r;
          Printf.sprintf "%.0e" c;
          Printf.sprintf "%.2f" fc2;
          Printf.sprintf "%.2f (ideal)" ideal;
        ])
    [ (330., 1e-5); (1000., 1e-5); (1000., 1e-4) ];
  Table.print t;
  print_newline ()

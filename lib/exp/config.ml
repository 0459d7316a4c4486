module Train = Pnc_core.Train
module Variation = Pnc_core.Variation

type scale = Smoke | Fast | Paper

type t = {
  scale : scale;
  seeds : int list;
  top_k : int;
  train_base : Train.config;
  train_va : Train.config;
  aug_copies : int;
  eval_draws : int;
  eval_level : float;
  dataset_n : int option;
  datasets : string list;
  precision : Pnc_core.Batch.precision;
  corr : Variation.corr option;
}

let all_datasets = Pnc_data.Registry.names

let of_scale scale =
  match scale with
  | Smoke ->
      {
        scale;
        seeds = [ 0 ];
        top_k = 1;
        train_base = { Train.smoke_config with variation = Variation.none; mc_samples = 1 };
        train_va = Train.smoke_config;
        aug_copies = 1;
        eval_draws = 3;
        eval_level = 0.1;
        dataset_n = Some 60;
        datasets = [ "GPOVY"; "PowerCons" ];
        precision = `Exact;
        corr = None;
      }
  | Fast ->
      {
        scale;
        seeds = [ 0; 1; 2 ];
        top_k = 2;
        train_base =
          {
            Train.fast_config with
            variation = Variation.none;
            mc_samples = 1;
            max_epochs = 350;
            patience = 15;
          };
        train_va = { Train.fast_config with max_epochs = 450; patience = 18 };
        aug_copies = 1;
        eval_draws = 5;
        eval_level = 0.1;
        dataset_n = Some 200;
        datasets = all_datasets;
        precision = `Exact;
        corr = None;
      }
  | Paper ->
      {
        scale;
        seeds = List.init 10 Fun.id;
        top_k = 3;
        train_base = { Train.paper_config with variation = Variation.none; mc_samples = 1 };
        train_va = Train.paper_config;
        aug_copies = 1;
        eval_draws = 10;
        eval_level = 0.1;
        dataset_n = None;
        datasets = all_datasets;
        precision = `Exact;
        corr = None;
      }

(* Canonical text over every field that affects the computation of one
   grid cell (a dataset x variant x seed training run). Seeds, dataset
   and variant lists, and [top_k] are deliberately excluded: they select
   which cells run and how results aggregate, so changing them must not
   invalidate cached cells. Floats are rendered %.17g (exact). *)

let corr_fingerprint (c : Variation.corr) =
  Printf.sprintf "corr(%.17g,%.17g%s)" c.Variation.rho c.Variation.clen
    (match c.Variation.drift with
    | None -> ""
    | Some d -> Printf.sprintf ",drift(%.17g,%.17g)" d.Variation.temp_c d.Variation.age_hours)

let variation_fingerprint (v : Variation.spec) =
  let dist =
    match v.Variation.dist with
    | Variation.Uniform -> "uniform"
    | Variation.Gaussian -> "gaussian"
    | Variation.Gmm { w1; m1; s1; m2; s2 } ->
        Printf.sprintf "gmm(%.17g,%.17g,%.17g,%.17g,%.17g)" w1 m1 s1 m2 s2
  in
  let base = Printf.sprintf "%s@%.17g" dist v.Variation.level in
  (* Appended only when a correlation spec is attached, so every spec
     ever fingerprinted before the correlated model existed — all
     [corr = None] by construction — keeps its exact byte string
     (the same policy as the precision suffix below). *)
  match v.Variation.corr with None -> base | Some c -> base ^ ";" ^ corr_fingerprint c

let train_fingerprint (c : Train.config) =
  let base =
    Printf.sprintf
      "lr=%.17g;lr_factor=%.17g;patience=%d;min_lr=%.17g;max_epochs=%d;mc=%d;mc_val=%d;var=%s;clip=%s;wd=%.17g"
      c.Train.lr c.Train.lr_factor c.Train.patience c.Train.min_lr c.Train.max_epochs
      c.Train.mc_samples c.Train.mc_samples_val
      (variation_fingerprint c.Train.variation)
      (match c.Train.grad_clip with None -> "none" | Some g -> Printf.sprintf "%.17g" g)
      c.Train.weight_decay
  in
  (* Same append-only policy: noise injection and antithetic pairing
     change the gradients, so they must key separately, but the flags'
     absence must not disturb pre-existing fingerprints. *)
  let base = if c.Train.noise_injection then base ^ ";ni" else base in
  if c.Train.antithetic then base ^ ";anti" else base

let fingerprint t =
  let base =
    Printf.sprintf
      "cell-v1|base{%s}|va{%s}|aug_copies=%d;eval_draws=%d;eval_level=%.17g;dataset_n=%s"
      (train_fingerprint t.train_base) (train_fingerprint t.train_va) t.aug_copies
      t.eval_draws t.eval_level
      (match t.dataset_n with None -> "default" | Some n -> string_of_int n)
  in
  (* Appended only under `Fast so every fingerprint ever produced before
     the precision tier existed — all `Exact by construction — keeps its
     exact byte string, and cached grid cells stay valid. `Fast results
     can differ (≤1e-7 per tanh), so they must key separately. *)
  let base =
    match t.precision with `Exact -> base | `Fast -> base ^ "|precision=fast"
  in
  (* Grid-level correlation spec (the +NI training spec and the
     corr_var_acc operating point), append-only like the precision
     suffix. *)
  match t.corr with None -> base | Some c -> base ^ "|" ^ corr_fingerprint c

let scale_of_string = function
  | "smoke" -> Smoke
  | "fast" -> Fast
  | "paper" -> Paper
  | s -> invalid_arg ("unknown scale: " ^ s ^ " (expected smoke|fast|paper)")

let scale_name = function Smoke -> "smoke" | Fast -> "fast" | Paper -> "paper"

let corr_of_string s =
  match String.split_on_char ',' s |> List.map String.trim with
  | [ rho; clen ] ->
      { Variation.rho = float_of_string rho; clen = float_of_string clen; drift = None }
  | [ rho; clen; temp_c; age_hours ] ->
      {
        Variation.rho = float_of_string rho;
        clen = float_of_string clen;
        drift =
          Some
            {
              Variation.temp_c = float_of_string temp_c;
              age_hours = float_of_string age_hours;
            };
      }
  | _ ->
      invalid_arg
        ("bad corr spec: " ^ s ^ " (expected RHO,CLEN or RHO,CLEN,TEMP_C,AGE_HOURS)")

let from_env () =
  let cfg =
    match Sys.getenv_opt "ADAPT_PNC_SCALE" with
    | Some s -> of_scale (scale_of_string s)
    | None -> of_scale Fast
  in
  (* Entry-point resolution of the precision tier (see Batch): the
     environment is consulted here, never inside library defaults, so a
     Fast run always flows through a Config that fingerprints it. The
     correlation spec follows the same rule (ADAPT_PNC_CORR; absent by
     default so all pre-existing fingerprints are untouched). *)
  let corr =
    match Sys.getenv_opt "ADAPT_PNC_CORR" with
    | None -> cfg.corr
    | Some s -> Some (corr_of_string s)
  in
  { cfg with precision = Pnc_core.Batch.entry_precision (); corr }

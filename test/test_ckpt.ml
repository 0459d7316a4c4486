(* Persistence & fault-injection battery for the checkpoint stack:

   - container format: randomized save -> load round trips are
     bit-identical (eps 0) and files are byte-stable across saves;
   - fault injection: truncation at every 1/8 boundary and random bit
     flips in header and payload are rejected with a typed error (never
     an exception, never a silently wrong model), and an interrupted
     atomic write leaves the previous valid checkpoint intact;
   - resume parity: kill-at-any-epoch + fresh-process-style reload
     reproduces the uninterrupted run exactly — per-epoch losses,
     best_val_loss and final parameters at eps 0;
   - the grid cell cache: a warm run is bit-identical to a cold one,
     and a corrupted cache entry is recomputed, never trusted.

   The binary is re-run by test/dune under POOL_SIZE=1 and POOL_SIZE=4
   so the cache-parity suite exercises both the sequential fallback and
   the multi-domain evaluation pool. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Dataset = Pnc_data.Dataset
module Registry = Pnc_data.Registry
module Network = Pnc_core.Network
module Elman = Pnc_core.Elman
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Persist = Pnc_core.Persist
module Variation = Pnc_core.Variation
module Grid = Pnc_grid.Grid
module Optimizer = Pnc_optim.Optimizer
module Scheduler = Pnc_optim.Scheduler
module Obs = Pnc_obs.Obs
module Json = Pnc_obs.Obs.Json
module Ckpt = Pnc_ckpt.Ckpt
module Config = Pnc_exp.Config
module E = Pnc_exp.Experiments

let env_pool_size =
  match Sys.getenv_opt "POOL_SIZE" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 4)
  | None -> 4

(* Helpers ---------------------------------------------------------------- *)

let temp_dir =
  let d = Filename.temp_file "pnc_ckpt_test" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let path name = Filename.concat temp_dir name
let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

(* Exact (eps 0) comparison; [compare] instead of [=] so an accidental
   NaN still compares equal to itself. *)
let check_exact_float msg a b =
  if compare (a : float) b <> 0 then Alcotest.failf "%s: %.17g <> %.17g" msg a b

let check_same_tensor msg a b =
  if T.rows a <> T.rows b || T.cols a <> T.cols b then
    Alcotest.failf "%s: shape %dx%d <> %dx%d" msg (T.rows a) (T.cols a) (T.rows b) (T.cols b);
  for r = 0 to T.rows a - 1 do
    for c = 0 to T.cols a - 1 do
      if compare (T.get a r c) (T.get b r c) <> 0 then
        Alcotest.failf "%s: [%d,%d] %.17g <> %.17g" msg r c (T.get a r c) (T.get b r c)
    done
  done

let check_same_params msg a b =
  let pa = Model.named_params a and pb = Model.named_params b in
  Alcotest.(check int) (msg ^ ": same param count") (List.length pa) (List.length pb);
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) (msg ^ ": param name") na nb;
      check_same_tensor (msg ^ ": " ^ na) (Var.value va) (Var.value vb))
    pa pb

let counter_value name =
  List.fold_left
    (fun acc (n, fields) ->
      if n = name then
        match List.assoc_opt "value" fields with Some (Obs.Int v) -> acc + v | _ -> acc
      else acc)
    0
    (Obs.metrics_snapshot ())

let random_model rng =
  let classes = 2 + Rng.int rng 4 in
  match Rng.int rng 3 with
  | 0 -> Model.Reference (Elman.create ~hidden:(2 + Rng.int rng 6) rng ~inputs:1 ~classes)
  | 1 ->
      Model.Circuit
        (Network.create ~hidden:(2 + Rng.int rng 4) rng Network.Ptpnc ~inputs:1 ~classes)
  | _ ->
      Model.Circuit
        (Network.create ~hidden:(2 + Rng.int rng 4) rng Network.Adapt ~inputs:1 ~classes)

(* Container format -------------------------------------------------------- *)

let test_encode_decode_roundtrip () =
  let sections =
    [
      ("a", Ckpt.F64 { rows = 2; cols = 3; data = [| 1.; -0.; Float.pi; infinity; neg_infinity; 1e-308 |] });
      ("blob", Ckpt.Bytes "\x00\xff raw \n bytes");
      ("empty", Ckpt.F64 { rows = 0; cols = 0; data = [||] });
    ]
  in
  let meta = [ ("note", Json.String "hi"); ("n", Json.Num 3.) ] in
  let img = Ckpt.encode ~kind:"test" ~meta ~sections in
  match Ckpt.decode img with
  | Error e -> Alcotest.failf "decode failed: %s" (Ckpt.error_to_string e)
  | Ok ck ->
      Alcotest.(check string) "kind" "test" ck.Ckpt.kind;
      Alcotest.(check int) "version" 1 ck.Ckpt.version;
      Alcotest.(check bool) "meta" true (ck.Ckpt.meta = meta);
      Alcotest.(check bool) "sections survive exactly" true (ck.Ckpt.sections = sections);
      Alcotest.(check string) "deterministic bytes" img
        (Ckpt.encode ~kind:"test" ~meta ~sections)

let test_nonfinite_floats_roundtrip () =
  let data = [| infinity; neg_infinity; nan; -0.; Float.min_float |] in
  let img =
    Ckpt.encode ~kind:"t" ~meta:[] ~sections:[ ("x", Ckpt.F64 { rows = 1; cols = 5; data }) ]
  in
  match Ckpt.decode img with
  | Error e -> Alcotest.failf "decode failed: %s" (Ckpt.error_to_string e)
  | Ok ck -> (
      match Ckpt.f64 ck "x" with
      | Ok got -> Array.iteri (fun i v -> check_exact_float (Printf.sprintf "x[%d]" i) data.(i) v) got
      | Error e -> Alcotest.failf "f64: %s" (Ckpt.error_to_string e))

let test_accessor_errors () =
  let img =
    Ckpt.encode ~kind:"t" ~meta:[]
      ~sections:
        [ ("f", Ckpt.F64 { rows = 1; cols = 1; data = [| 0. |] }); ("b", Ckpt.Bytes "x") ]
  in
  let ck = match Ckpt.decode img with Ok ck -> ck | Error _ -> assert false in
  (match Ckpt.find ck "nope" with
  | Error (Ckpt.Missing_section "nope") -> ()
  | _ -> Alcotest.fail "expected Missing_section");
  (match Ckpt.f64 ck "b" with
  | Error (Ckpt.Bad_section _) -> ()
  | _ -> Alcotest.fail "expected Bad_section for f64 on bytes");
  match Ckpt.bytes ck "f" with
  | Error (Ckpt.Bad_section _) -> ()
  | _ -> Alcotest.fail "expected Bad_section for bytes on f64"

(* Model round trips -------------------------------------------------------- *)

(* Property (qgen): every random model round-trips through the
   checkpoint format at eps 0, and re-saving is byte-stable. Each case
   draws its model from its own indexed child stream, so a failure
   replays from the reported QGEN_SEED without the other 49 cases. *)
let test_model_roundtrips () =
  Qgen.check ~count:50 ~name:"model round-trip"
    ~pp:(fun m ->
      match m with
      | Model.Reference _ -> "Reference Elman"
      | Model.Circuit net ->
          Printf.sprintf "%s h=%d c=%d" (Network.arch_name (Network.arch net))
            (Network.hidden net) (Network.classes net))
    random_model
    (fun m ->
      let p = path "model-prop.ckpt" in
      Persist.save_model ~path:p m;
      (match Persist.load_model ~path:p with
      | Error e -> Alcotest.failf "load: %s" (Ckpt.error_to_string e)
      | Ok m' -> check_same_params "model" m m');
      (* byte stability: saving the same state twice writes the same file *)
      let b1 = read_file p in
      Persist.save_model ~path:p m;
      b1 = read_file p)

let test_model_meta_survives () =
  let m = random_model (Rng.create ~seed:7) in
  let p = path "meta.ckpt" in
  Persist.save_model ~extra_meta:[ ("note", Json.String "hello") ] ~path:p m;
  let ck = Ckpt.load_exn ~path:p in
  Alcotest.(check string) "kind" "model" ck.Ckpt.kind;
  Alcotest.(check bool) "extra meta survives" true
    (Ckpt.meta_field ck "note" = Some (Json.String "hello"));
  Alcotest.(check bool) "model meta survives" true
    (List.for_all
       (fun (k, v) -> Ckpt.meta_field ck k = Some v)
       (Persist.model_meta m))

let test_named_params_order_invariant () =
  let rng = Rng.create ~seed:99 in
  for _ = 0 to 9 do
    let m = random_model rng in
    let named = List.map snd (Model.named_params m) in
    let plain = Model.params m in
    Alcotest.(check int) "same length" (List.length plain) (List.length named);
    List.iter2
      (fun a b ->
        if not (a == b) then Alcotest.fail "named_params order differs from params")
      named plain
  done

let test_load_into_wrong_model () =
  (* A checkpoint for one architecture must be rejected for another,
     with the target model left untouched. *)
  let a = Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed:1) Network.Adapt ~inputs:1 ~classes:2) in
  let b = Model.Circuit (Network.create ~hidden:4 (Rng.create ~seed:2) Network.Adapt ~inputs:1 ~classes:3) in
  let p = path "wrong.ckpt" in
  Persist.save_model ~path:p a;
  let before = List.map (fun (_, v) -> T.copy (Var.value v)) (Model.named_params b) in
  let ck = Ckpt.load_exn ~path:p in
  (match Persist.load_params_into b ck with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shape mismatch accepted");
  List.iter2
    (fun (n, v) t -> check_same_tensor ("untouched " ^ n) (Var.value v) t)
    (Model.named_params b) before

(* A header whose dimensions no model can have is a typed [Bad_header],
   for both model families: 0 (which the constructors' asserts reject,
   or an Elman net accepts), a value past the 1..1024 cap, and one too
   large for an int. *)
let test_bad_dimensions_rejected () =
  let models =
    [
      Model.Circuit
        (Network.create ~hidden:3 (Rng.create ~seed:1) Network.Adapt ~inputs:1 ~classes:2);
      Model.Reference (Elman.create ~hidden:3 (Rng.create ~seed:2) ~inputs:1 ~classes:2);
    ]
  in
  List.iter
    (fun m ->
      let meta = Persist.model_meta m in
      (match Persist.model_of_meta meta with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "valid meta rejected: %s" (Ckpt.error_to_string e));
      List.iter
        (fun (key, v) ->
          let bad = List.map (fun (k, x) -> if k = key then (k, Json.Num v) else (k, x)) meta in
          match Persist.model_of_meta bad with
          | Error (Ckpt.Bad_header _) -> ()
          | Error e ->
              Alcotest.failf "%s %g: expected Bad_header, got %s" key v (Ckpt.error_to_string e)
          | Ok _ -> Alcotest.failf "%s %g accepted" key v
          | exception e -> Alcotest.failf "%s %g raised %s" key v (Printexc.to_string e))
        [
          ("hidden", 0.);
          ("classes", 0.);
          ("inputs", 0.);
          ("hidden", 1e300);
          ("hidden", 1025.);
          ("classes", -1.);
          ("hidden", 2.5);
        ])
    models

(* Fault injection ---------------------------------------------------------- *)

let make_reference_image () =
  let m = random_model (Rng.create ~seed:55) in
  let p = path "ref.ckpt" in
  Persist.save_model ~path:p m;
  read_file p

let expect_typed_error what s =
  let p = path "fault.ckpt" in
  write_file p s;
  match Ckpt.load ~path:p with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | exception e -> Alcotest.failf "%s: raised %s instead of typed error" what (Printexc.to_string e)

let test_truncation_rejected () =
  let img = make_reference_image () in
  let n = String.length img in
  for k = 0 to 7 do
    let len = n * k / 8 in
    expect_typed_error (Printf.sprintf "truncated to %d/%d bytes" len n) (String.sub img 0 len)
  done;
  expect_typed_error "one byte short" (String.sub img 0 (n - 1));
  (* trailing garbage is corruption too *)
  expect_typed_error "trailing bytes" (img ^ "x")

let read_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let flip img pos x =
  let b = Bytes.of_string img in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
  Bytes.to_string b

let test_bit_flips_rejected () =
  let img = make_reference_image () in
  let n = String.length img in
  let header_len = read_u32 img 12 in
  let rng = Rng.create ~seed:77 in
  let flip_at what pos =
    expect_typed_error
      (Printf.sprintf "%s flip at byte %d" what pos)
      (flip img pos (1 + Rng.int rng 255))
  in
  (* the fixed prefix: magic, version, lengths, both CRC fields *)
  for pos = 0 to 27 do
    flip_at "prefix" pos
  done;
  (* random positions in the JSON header and in the payload *)
  for _ = 1 to 32 do
    flip_at "header" (28 + Rng.int rng header_len);
    flip_at "payload" (28 + header_len + Rng.int rng (n - 28 - header_len))
  done;
  (* single-bit flips specifically (CRC-32 detects all of them) *)
  for _ = 1 to 32 do
    expect_typed_error "single-bit flip" (flip img (Rng.int rng n) (1 lsl Rng.int rng 8))
  done

let test_atomic_write_interrupt () =
  let p = path "atomic.ckpt" in
  let m = random_model (Rng.create ~seed:66) in
  Persist.save_model ~path:p m;
  let before = read_file p in
  (match Ckpt.atomic_write ~path:p (fun oc ->
       output_string oc "partial garbage";
       failwith "simulated crash mid-write")
   with
  | () -> Alcotest.fail "writer exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "previous checkpoint intact" true (before = read_file p);
  (* temp files are pid-unique ([path ^ ".tmp.<pid>"]) so concurrent
     duplicate publishers cannot truncate each other's staging bytes;
     scan by prefix rather than probing one fixed name. *)
  let tmp_litter =
    let prefix = Filename.basename p ^ ".tmp." in
    Array.exists
      (fun e -> String.length e >= String.length prefix && String.sub e 0 (String.length prefix) = prefix)
      (Sys.readdir (Filename.dirname p))
  in
  Alcotest.(check bool) "no temp file left behind" false tmp_litter;
  match Persist.load_model ~path:p with
  | Ok m' -> check_same_params "still loads" m m'
  | Error e -> Alcotest.failf "previous checkpoint unreadable: %s" (Ckpt.error_to_string e)

let test_missing_file_is_io_error () =
  match Ckpt.load ~path:(path "does-not-exist.ckpt") with
  | Error (Ckpt.Io_error _) -> ()
  | Error e -> Alcotest.failf "expected Io_error, got %s" (Ckpt.error_to_string e)
  | Ok _ -> Alcotest.fail "loaded a missing file"

(* Training state ----------------------------------------------------------- *)

let gpovy_split () =
  let raw = Registry.load ~seed:3 ~n:60 "GPOVY" in
  Dataset.preprocess (Rng.create ~seed:4) raw

(* Patience high enough that the plateau scheduler never stops these
   short runs early: all [max_epochs] epochs run. *)
let resume_cfg =
  { Train.smoke_config with Train.max_epochs = 12; patience = 50; mc_samples = 2 }

let make_model seed =
  Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed) Network.Adapt ~inputs:1 ~classes:2)

let fresh_opt_sched model =
  let opt =
    Optimizer.adamw ~weight_decay:resume_cfg.Train.weight_decay ~params:(Model.params model) ()
  in
  let sched =
    Scheduler.plateau ~factor:resume_cfg.Train.lr_factor ~patience:resume_cfg.Train.patience
      ~min_lr:resume_cfg.Train.min_lr ~init_lr:resume_cfg.Train.lr ()
  in
  (opt, sched)

let test_train_state_save_load_save_identical () =
  (* save -> fresh-process-style load -> save must reproduce the file
     byte for byte: nothing in the state is lost or perturbed. *)
  let split = gpovy_split () in
  let model = make_model 11 in
  let p1 = path "state1.ckpt" in
  (match
     Train.train ~rng:(Rng.create ~seed:42) ~checkpoint_path:p1 ~die_at_epoch:4 resume_cfg
       model split
   with
  | _ -> Alcotest.fail "expected Killed"
  | exception Train.Killed e -> Alcotest.(check int) "killed at 4" 4 e);
  let model' = make_model 0 (* constructor seed irrelevant: params overwritten *) in
  let opt, sched = fresh_opt_sched model' in
  match Persist.load_train_state ~path:p1 ~model:model' ~opt ~sched with
  | Error e -> Alcotest.failf "load_train_state: %s" (Ckpt.error_to_string e)
  | Ok r ->
      Alcotest.(check int) "epoch" 4 r.Persist.r_epoch;
      Alcotest.(check int) "curve length" 4 (Array.length r.Persist.r_train_curve);
      let p2 = path "state2.ckpt" in
      Persist.save_train_state ~path:p2 ~model:model' ~opt ~sched ~rng:r.Persist.r_rng
        ~epoch:r.Persist.r_epoch ~best:r.Persist.r_best ~best_snap:r.Persist.r_best_snap
        ~train_curve:r.Persist.r_train_curve ~val_curve:r.Persist.r_val_curve;
      Alcotest.(check bool) "save-load-save byte-identical" true
        (read_file p1 = read_file p2)

let test_train_state_wrong_model_rejected () =
  let p = path "state1.ckpt" in
  let other = Model.Reference (Elman.create (Rng.create ~seed:5) ~inputs:1 ~classes:2) in
  let opt, sched = fresh_opt_sched other in
  match Persist.load_train_state ~path:p ~model:other ~opt ~sched with
  | Error (Ckpt.Bad_header _) -> ()
  | Error e -> Alcotest.failf "expected Bad_header, got %s" (Ckpt.error_to_string e)
  | Ok _ -> Alcotest.fail "elman accepted a circuit checkpoint"

(* Resume parity ------------------------------------------------------------ *)

let run_straight () =
  let model = make_model 11 in
  let h = Train.train ~rng:(Rng.create ~seed:42) resume_cfg model (gpovy_split ()) in
  (model, h)

let check_same_history msg (a : Train.history) (b : Train.history) =
  Alcotest.(check int) (msg ^ ": epochs_run") a.Train.epochs_run b.Train.epochs_run;
  check_exact_float (msg ^ ": final_lr") a.Train.final_lr b.Train.final_lr;
  check_exact_float (msg ^ ": best_val_loss") a.Train.best_val_loss b.Train.best_val_loss;
  let curve name ca cb =
    Alcotest.(check int) (msg ^ ": " ^ name ^ " length") (Array.length ca) (Array.length cb);
    Array.iteri (fun i v -> check_exact_float (Printf.sprintf "%s: %s[%d]" msg name i) v cb.(i)) ca
  in
  curve "train_loss_curve" a.Train.train_loss_curve b.Train.train_loss_curve;
  curve "val_loss_curve" a.Train.val_loss_curve b.Train.val_loss_curve

let test_kill_and_resume_parity () =
  let split = gpovy_split () in
  let m1, h1 = run_straight () in
  List.iter
    (fun k ->
      let ckpt = path (Printf.sprintf "resume-at-%d.ckpt" k) in
      let m2 = make_model 11 in
      (match
         Train.train ~rng:(Rng.create ~seed:42) ~checkpoint_path:ckpt ~die_at_epoch:k
           resume_cfg m2 split
       with
      | _ -> Alcotest.fail "expected Killed"
      | exception Train.Killed e -> Alcotest.(check int) "killed where asked" k e);
      (* fresh-process-style reload: a brand-new model object, and an
         rng whose seed proves the checkpointed stream is what's used *)
      let m3 = make_model 11 in
      let h2 =
        Train.train ~rng:(Rng.create ~seed:999) ~resume_from:ckpt resume_cfg m3 split
      in
      let msg = Printf.sprintf "kill@%d" k in
      check_same_history msg h1 h2;
      check_same_params msg m1 m3)
    [ 1; 5; 11; 12 ]

let test_resume_from_corrupt_rejected () =
  let ckpt = path "resume-at-5.ckpt" in
  let img = read_file ckpt in
  let bad = path "corrupt-resume.ckpt" in
  write_file bad (flip img (String.length img / 2) 0x40);
  let m = make_model 11 in
  match Train.train ~rng:(Rng.create ~seed:1) ~resume_from:bad resume_cfg m (gpovy_split ()) with
  | _ -> Alcotest.fail "resumed from a corrupt checkpoint"
  | exception Ckpt.Error _ -> ()

let test_returned_model_is_best_epoch () =
  (* Regression: [train] must return the best-epoch parameters, not the
     last-epoch ones. A truncated rerun reproduces epochs 1..b exactly
     (same RNG consumption), so its final state pins down what the best
     snapshot must be. *)
  let m1, h1 = run_straight () in
  let curve = h1.Train.val_loss_curve in
  let b = ref 0 in
  Array.iteri (fun i v -> if v < curve.(!b) then b := i) curve;
  let best_epoch = !b + 1 in
  Alcotest.(check bool) "run ends on a worse epoch than its best" true
    (best_epoch < h1.Train.epochs_run);
  check_exact_float "best_val_loss = min of val curve" curve.(!b) h1.Train.best_val_loss;
  let m2 = make_model 11 in
  let h2 =
    Train.train ~rng:(Rng.create ~seed:42)
      { resume_cfg with Train.max_epochs = best_epoch }
      m2 (gpovy_split ())
  in
  check_exact_float "truncated run agrees on best" h1.Train.best_val_loss
    h2.Train.best_val_loss;
  check_same_params "returned params are the best-epoch params" m1 m2

(* Grid cell cache ---------------------------------------------------------- *)

let grid_cfg () =
  let cfg = Config.of_scale Config.Smoke in
  { cfg with Config.datasets = [ "GPOVY" ]; dataset_n = Some 50 }

let check_same_run msg (a : E.run) (b : E.run) =
  Alcotest.(check string) (msg ^ ": dataset") a.E.dataset b.E.dataset;
  Alcotest.(check bool) (msg ^ ": variant") true (a.E.variant = b.E.variant);
  Alcotest.(check int) (msg ^ ": seed") a.E.seed b.E.seed;
  Alcotest.(check int) (msg ^ ": epochs") a.E.epochs b.E.epochs;
  List.iter
    (fun (n, x, y) -> check_exact_float (msg ^ ": " ^ n) x y)
    [
      ("clean_acc", a.E.clean_acc, b.E.clean_acc);
      ("clean_var_acc", a.E.clean_var_acc, b.E.clean_var_acc);
      ("aug_var_acc", a.E.aug_var_acc, b.E.aug_var_acc);
      ("pert_var_acc", a.E.pert_var_acc, b.E.pert_var_acc);
    ];
  check_same_params msg a.E.model b.E.model

let with_env_pool f =
  if env_pool_size <= 1 then f None else Pool.with_pool ~size:env_pool_size (fun p -> f (Some p))

let test_grid_cache_warm_equals_cold () =
  with_env_pool @@ fun pool ->
  let cfg = grid_cfg () in
  let dir = path "grid-cache" in
  let variants = [ E.Base; E.Full ] in
  let cold = Grid.run ?pool ~dir cfg ~variants in
  let hits_before = counter_value "grid.cache_hits" in
  let warm = Grid.run ?pool ~dir cfg ~variants in
  Alcotest.(check int) "every warm cell came from the cache"
    (List.length cold)
    (counter_value "grid.cache_hits" - hits_before);
  List.iter2 (check_same_run "warm=cold") cold warm;
  (* an uncached run must agree too (the cache changes nothing) *)
  List.iter
    (fun (c : E.run) ->
      check_same_run "train_run=cached" c
        (E.train_run ?pool cfg ~dataset:c.E.dataset ~variant:c.E.variant ~seed:c.E.seed))
    cold

let test_grid_cache_corrupt_recomputed () =
  with_env_pool @@ fun pool ->
  let cfg = grid_cfg () in
  let dir = path "grid-cache" in
  let cell = E.cell_path ~dir cfg ~dataset:"GPOVY" ~variant:E.Base ~seed:0 in
  Alcotest.(check bool) "cold run wrote the cell" true (Sys.file_exists cell);
  let good = read_file cell in
  write_file cell (flip good (String.length good / 3) 0x10);
  let hits_before = counter_value "grid.cache_hits" in
  let runs = Grid.run ?pool ~dir cfg ~variants:[ E.Base ] in
  Alcotest.(check int) "corrupt cell not trusted" hits_before
    (counter_value "grid.cache_hits");
  Alcotest.(check int) "recomputed" 1 (List.length runs);
  (* The rewritten cell is valid again and warm-loads to the same run
     (bytes may differ: the cached wall-clock timing is not
     deterministic, everything the artifacts read is). *)
  (match Ckpt.load ~path:cell with
  | Ok ck -> Alcotest.(check string) "cell kind" "grid-cell" ck.Ckpt.kind
  | Error e -> Alcotest.failf "rewritten cell unreadable: %s" (Ckpt.error_to_string e));
  let warm = Grid.run ?pool ~dir cfg ~variants:[ E.Base ] in
  Alcotest.(check int) "rewritten cell warm-loads" (hits_before + 1)
    (counter_value "grid.cache_hits");
  List.iter2 (check_same_run "recomputed=warm") runs warm;
  (* stale fingerprint: any cell-affecting knob change misses the cache *)
  let cfg' = { cfg with Config.eval_draws = cfg.Config.eval_draws + 1 } in
  Alcotest.(check bool) "fingerprint keys the path" true
    (E.cell_path ~dir cfg ~dataset:"GPOVY" ~variant:E.Base ~seed:0
    <> E.cell_path ~dir cfg' ~dataset:"GPOVY" ~variant:E.Base ~seed:0)

(* A streaming run gets its trained cell the way the CLI's
   [stream --cache-dir] does, through [Grid.run] over its one key: over
   a cached grid it trains nothing, counts one cache hit and streams
   the grid's model. *)
let test_stream_run_reuses_grid_cell () =
  with_env_pool @@ fun pool ->
  let cfg = grid_cfg () in
  let dir = path "grid-cache" in
  let grid = Grid.run ?pool ~dir cfg ~variants:[ E.Full ] in
  let scenario = Pnc_stream.Scenario.make ~dataset:"GPOVY" ~n_samples:16 ~seed:11 () in
  let protocol = Pnc_stream.Online.default_protocol in
  let hits_before = counter_value "grid.cache_hits" in
  let one = { cfg with Config.seeds = [ 0 ] } in
  let sr =
    E.stream_run ?pool cfg ~scenario ~protocol
      (List.hd (Grid.run ?pool ~dir one ~variants:[ E.Full ]))
  in
  Alcotest.(check int) "the stream's cell came from the cache" (hits_before + 1)
    (counter_value "grid.cache_hits");
  check_same_run "stream cell = grid cell" (List.find (fun r -> r.E.seed = 0) grid) sr.E.sr_run

(* ------------------------------------------------------------------------- *)

let () =
  Alcotest.run "ckpt"
    [
      ( "format",
        [
          Alcotest.test_case "encode/decode round trip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "non-finite floats survive" `Quick test_nonfinite_floats_roundtrip;
          Alcotest.test_case "typed accessor errors" `Quick test_accessor_errors;
        ] );
      ( "model-roundtrip",
        [
          Alcotest.test_case "50 random models, eps 0" `Quick test_model_roundtrips;
          Alcotest.test_case "metadata survives" `Quick test_model_meta_survives;
          Alcotest.test_case "named_params order = params" `Quick
            test_named_params_order_invariant;
          Alcotest.test_case "wrong model rejected, untouched" `Quick test_load_into_wrong_model;
          Alcotest.test_case "bad dimensions rejected" `Quick test_bad_dimensions_rejected;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "truncation at every 1/8 boundary" `Quick test_truncation_rejected;
          Alcotest.test_case "bit flips in header and payload" `Quick test_bit_flips_rejected;
          Alcotest.test_case "interrupted atomic write" `Quick test_atomic_write_interrupt;
          Alcotest.test_case "missing file" `Quick test_missing_file_is_io_error;
        ] );
      ( "train-state",
        [
          Alcotest.test_case "save-load-save byte-identical" `Quick
            test_train_state_save_load_save_identical;
          Alcotest.test_case "wrong model rejected" `Quick test_train_state_wrong_model_rejected;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill at any epoch + resume = straight run" `Quick
            test_kill_and_resume_parity;
          Alcotest.test_case "corrupt resume checkpoint rejected" `Quick
            test_resume_from_corrupt_rejected;
          Alcotest.test_case "returned model is best-epoch model" `Quick
            test_returned_model_is_best_epoch;
        ] );
      ( "grid-cache",
        [
          Alcotest.test_case "warm cache bit-identical to cold" `Quick
            test_grid_cache_warm_equals_cold;
          Alcotest.test_case "corrupt cell recomputed" `Quick test_grid_cache_corrupt_recomputed;
          Alcotest.test_case "stream run reuses the grid's cell" `Quick
            test_stream_run_reuses_grid_cell;
        ] );
    ]

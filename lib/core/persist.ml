module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Rng = Pnc_util.Rng
module Optimizer = Pnc_optim.Optimizer
module Scheduler = Pnc_optim.Scheduler
module Ckpt = Pnc_ckpt.Ckpt
module Json = Pnc_obs.Obs.Json

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Model metadata --------------------------------------------------------- *)

let arch_tag = function Network.Ptpnc -> "ptpnc" | Network.Adapt -> "adapt"

let model_meta (m : Model.t) =
  match m with
  | Model.Circuit net ->
      [
        ("family", Json.String "circuit");
        ("arch", Json.String (arch_tag (Network.arch net)));
        ("inputs", Json.Num (float_of_int (Network.inputs net)));
        ("hidden", Json.Num (float_of_int (Network.hidden net)));
        ("classes", Json.Num (float_of_int (Network.classes net)));
      ]
  | Model.Reference e ->
      [
        ("family", Json.String "elman");
        ("inputs", Json.Num (float_of_int (Elman.inputs e)));
        ("hidden", Json.Num (float_of_int (Elman.hidden e)));
        ("classes", Json.Num (float_of_int (Elman.classes e)));
      ]

let meta_int meta name =
  match List.assoc_opt name meta with
  | Some (Json.Num v) when Float.is_integer v && v >= 0. -> Ok (int_of_float v)
  | _ -> Error (Ckpt.Bad_header ("meta: missing or bad " ^ name))

(* A model dimension is 1 .. [max_dim]. The largest model the code
   builds has 10 hidden units; outside the bound a corrupt header would
   reach the constructors' asserts, or allocate without limit. *)
let max_dim = 1024

let meta_dim meta name =
  match List.assoc_opt name meta with
  | Some (Json.Num v) when Float.is_integer v && v >= 1. && v <= float_of_int max_dim ->
      Ok (int_of_float v)
  | _ -> Error (Ckpt.Bad_header (Printf.sprintf "meta: missing or bad %s (1..%d)" name max_dim))

let meta_string meta name =
  match List.assoc_opt name meta with
  | Some (Json.String s) -> Ok s
  | _ -> Error (Ckpt.Bad_header ("meta: missing or bad " ^ name))

let model_of_meta meta =
  let* family = meta_string meta "family" in
  let* inputs = meta_dim meta "inputs" in
  let* hidden = meta_dim meta "hidden" in
  let* classes = meta_dim meta "classes" in
  (* The freshly created parameters are overwritten from the checkpoint
     immediately afterwards, so the construction seed is irrelevant. *)
  let rng = Rng.create ~seed:0 in
  match family with
  | "circuit" ->
      let* arch =
        let* tag = meta_string meta "arch" in
        match tag with
        | "ptpnc" -> Ok Network.Ptpnc
        | "adapt" -> Ok Network.Adapt
        | s -> Error (Ckpt.Bad_header ("meta: unknown arch " ^ s))
      in
      Ok (Model.Circuit (Network.create ~hidden rng arch ~inputs ~classes))
  | "elman" -> Ok (Model.Reference (Elman.create ~hidden rng ~inputs ~classes))
  | s -> Error (Ckpt.Bad_header ("meta: unknown model family " ^ s))

let check_meta_matches model meta =
  List.fold_left
    (fun acc (k, v) ->
      let* () = acc in
      if List.assoc_opt k meta = Some v then Ok ()
      else
        Error
          (Ckpt.Bad_header
             (Printf.sprintf "checkpoint was written for a different model (mismatch on %s)" k)))
    (Ok ()) (model_meta model)

(* Parameter sections ----------------------------------------------------- *)

let tensor_section v = Ckpt.F64 { rows = T.rows v; cols = T.cols v; data = T.to_row_array v }

let param_sections ?(prefix = "param/") m =
  List.map (fun (name, p) -> (prefix ^ name, tensor_section (Var.value p))) (Model.named_params m)

(* Read [prefix ^ name] for every named parameter, validating each shape
   against the live parameter; nothing is written to the model. *)
let read_param_tensors ck ~prefix named =
  let* rev =
    List.fold_left
      (fun acc (name, p) ->
        let* acc = acc in
        let* rows, cols, data = Ckpt.f64_shaped ck (prefix ^ name) in
        let v = Var.value p in
        if rows <> T.rows v || cols <> T.cols v then
          Error
            (Ckpt.Bad_section
               (Printf.sprintf "%s%s: stored %dx%d, model expects %dx%d" prefix name rows cols
                  (T.rows v) (T.cols v)))
        else Ok (T.of_array ~rows ~cols data :: acc))
      (Ok []) named
  in
  Ok (List.rev rev)

let load_params_into ?(prefix = "param/") m ck =
  let named = Model.named_params m in
  let* tensors = read_param_tensors ck ~prefix named in
  List.iter2 (fun (_, p) t -> T.blit_into ~dst:(Var.value p) t) named tensors;
  Ok ()

(* Model checkpoints ------------------------------------------------------- *)

let save_model ?(extra_meta = []) ~path m =
  Ckpt.save ~path ~kind:"model" ~meta:(model_meta m @ extra_meta) ~sections:(param_sections m)

let load_model ~path =
  let* ck = Ckpt.load ~path in
  let* () =
    (* A train checkpoint embeds the same model meta and param/
       sections, so it is a valid source for evaluation too. *)
    match ck.Ckpt.kind with
    | "model" | "train" -> Ok ()
    | k -> Error (Ckpt.Bad_header ("expected a model or train checkpoint, found kind " ^ k))
  in
  let* m = model_of_meta ck.Ckpt.meta in
  let* () = load_params_into m ck in
  Ok m

let load_model_exn ~path =
  match load_model ~path with Ok m -> m | Stdlib.Error e -> raise (Ckpt.Error e)

(* Training-state checkpoints ---------------------------------------------- *)

(* The "state" section packs the scalars that may legitimately be
   non-finite (best losses start at [infinity]); JSON metadata cannot
   represent those, %.17g payload text can. *)
let n_state_scalars = 5

type resume = {
  r_epoch : int;
  r_best : float;
  r_best_snap : T.t list;
  r_rng : Rng.t;
  r_train_curve : float array;
  r_val_curve : float array;
}

let curve_section data = Ckpt.F64 { rows = 1; cols = Array.length data; data }

let save_train_state ~path ~model ~opt ~sched ~rng ~epoch ~best ~best_snap ~train_curve
    ~val_curve =
  let named = Model.named_params model in
  let bests = List.map2 (fun (name, _) t -> ("best/" ^ name, tensor_section t)) named best_snap in
  let slots =
    List.concat_map
      (fun (slot, arrs) ->
        List.map2
          (fun (name, _) arr ->
            ( Printf.sprintf "opt/%s/%s" slot name,
              Ckpt.F64 { rows = 1; cols = Array.length arr; data = arr } ))
          named (Array.to_list arrs))
      (Optimizer.slots opt)
  in
  let s = Scheduler.snapshot sched in
  let scalars =
    [|
      best;
      s.Scheduler.s_lr;
      s.Scheduler.s_best;
      float_of_int s.Scheduler.s_bad_epochs;
      float_of_int (Optimizer.step_count opt);
    |]
  in
  let meta =
    model_meta model
    @ [
        ("epoch", Json.Num (float_of_int epoch));
        ("optimizer", Json.String (Optimizer.algo_name opt));
      ]
  in
  let sections =
    param_sections model @ bests @ slots
    @ [
        ("curve/train", curve_section train_curve);
        ("curve/val", curve_section val_curve);
        ("state", Ckpt.F64 { rows = 1; cols = n_state_scalars; data = scalars });
        ("rng", Ckpt.Bytes (Rng.to_bytes rng));
      ]
  in
  Ckpt.save ~path ~kind:"train" ~meta ~sections

let load_train_state ~path ~model ~opt ~sched =
  let* ck = Ckpt.load ~path in
  let* () =
    match ck.Ckpt.kind with
    | "train" -> Ok ()
    | k -> Error (Ckpt.Bad_header ("expected a train checkpoint, found kind " ^ k))
  in
  let* () = check_meta_matches model ck.Ckpt.meta in
  let* epoch = meta_int ck.Ckpt.meta "epoch" in
  let named = Model.named_params model in
  (* Parse and validate everything before mutating anything, so a
     rejected checkpoint leaves model, optimizer and scheduler
     untouched. *)
  let* params = read_param_tensors ck ~prefix:"param/" named in
  let* best_snap = read_param_tensors ck ~prefix:"best/" named in
  let* slots =
    let* rev =
      List.fold_left
        (fun acc (slot, template) ->
          let* acc = acc in
          let* rev_arrs =
            List.fold_left
              (fun arrs ((name, _), expect) ->
                let* arrs = arrs in
                let sec = Printf.sprintf "opt/%s/%s" slot name in
                let* arr = Ckpt.f64 ck sec in
                if Array.length arr <> Array.length expect then
                  Error
                    (Ckpt.Bad_section
                       (Printf.sprintf "%s: %d values, optimizer expects %d" sec
                          (Array.length arr) (Array.length expect)))
                else Ok (arr :: arrs))
              (Ok [])
              (List.combine named (Array.to_list template))
          in
          Ok ((slot, Array.of_list (List.rev rev_arrs)) :: acc))
        (Ok []) (Optimizer.slots opt)
    in
    Ok (List.rev rev)
  in
  let* scalars = Ckpt.f64 ck "state" in
  let* () =
    if Array.length scalars = n_state_scalars then Ok ()
    else
      Error
        (Ckpt.Bad_section
           (Printf.sprintf "state: %d scalars, expected %d" (Array.length scalars)
              n_state_scalars))
  in
  let* rng =
    let* bytes = Ckpt.bytes ck "rng" in
    try Ok (Rng.of_bytes bytes) with Invalid_argument msg -> Error (Ckpt.Bad_section msg)
  in
  let* train_curve = Ckpt.f64 ck "curve/train" in
  let* val_curve = Ckpt.f64 ck "curve/val" in
  let* () =
    let snap =
      {
        Scheduler.s_lr = scalars.(1);
        Scheduler.s_best = scalars.(2);
        Scheduler.s_bad_epochs = int_of_float scalars.(3);
      }
    in
    try
      Optimizer.restore opt ~step_count:(int_of_float scalars.(4)) ~slots;
      Scheduler.restore sched snap;
      Ok ()
    with Invalid_argument msg -> Error (Ckpt.Bad_section msg)
  in
  List.iter2 (fun (_, p) t -> T.blit_into ~dst:(Var.value p) t) named params;
  Ok
    {
      r_epoch = epoch;
      r_best = scalars.(0);
      r_best_snap = best_snap;
      r_rng = rng;
      r_train_curve = train_curve;
      r_val_curve = val_curve;
    }

(* Shared plumbing of the benchmark: workload inputs, timing loops,
   order statistics, peak memory, the metric records every workload
   returns, and the span recorder behind the traced runs. *)

module Clock = Pnc_obs.Clock
module Json = Pnc_obs.Obs.Json
module Rng = Pnc_util.Rng
module T = Pnc_tensor.Tensor
module Dataset = Pnc_data.Dataset
module Model = Pnc_core.Model
module Network = Pnc_core.Network
module Train = Pnc_core.Train
module Variation = Pnc_core.Variation
module Config = Pnc_exp.Config
module Crossbar = Pnc_core.Crossbar
module Filter_layer = Pnc_core.Filter_layer
module Ptanh = Pnc_core.Ptanh

(* ---- metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one workload pass hands back to [Main]: the contract's op
   counts, the named output checks, the metrics of the current mode, and
   extra human-readable lines (the workload-specific names, tails with
   their sample counts, exact counts). *)
type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : metric list;
  info : (string * string) list;
}

(* ---- inputs ------------------------------------------------------------- *)

(* Every input is a function of the benchmark's --seed; the library only
   ever sees the generated data and models. *)
let dataset = "GPOVY"
let fast = Config.of_scale Config.Fast
let fast_n = Option.get fast.Config.dataset_n
let spec = Variation.uniform fast.Config.eval_level

let load_split ~seed ~n =
  let raw = Pnc_data.Registry.load ~n ~seed dataset in
  (raw.Dataset.n_classes, Dataset.preprocess (Rng.create ~seed:(seed + 1)) raw)

(* The paper's ADAPT net at the experiment grid's width. *)
let adapt_model ~seed ~classes =
  Model.Circuit
    (Network.create
       ~hidden:(min 8 (max 4 (2 * classes)))
       (Rng.create ~seed:(seed + 2))
       Network.Adapt ~inputs:1 ~classes)

let net_of = function
  | Model.Circuit n -> n
  | Model.Reference _ -> invalid_arg "perfbench: circuit model expected"

(* Variation-aware training at the fast scale's budget shape, with the
   plateau patience above the epoch cap so every call runs exactly
   [epochs] epochs. *)
let train_config ~epochs = { fast.Config.train_va with Train.max_epochs = epochs; patience = epochs + 1 }

(* The model the inference workloads deploy: the ADAPT net after a short
   variation-aware training run on the fast-scale split. *)
let deploy_epochs = 12

let deployed_model ~seed =
  let classes, split = load_split ~seed ~n:fast_n in
  let model = adapt_model ~seed ~classes in
  ignore (Train.train ~rng:(Rng.create ~seed:(seed + 3)) (train_config ~epochs:deploy_epochs) model split);
  model

(* Per-layer realizations in [Network]'s sampling order (filter, then
   activation, then crossbar, layer by layer). *)
let realize_all net draw =
  List.map
    (fun (cb, fl, act) ->
      let f = Filter_layer.realize_t ~draw fl in
      let a = Ptanh.realize_t ~draw act in
      let c = Crossbar.realize_t ~draw cb in
      (c, f, a))
    (Network.layers net)

(* ---- timing ------------------------------------------------------------- *)

let now = Clock.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] until [seconds] have passed and it ran at least [min_reps]
   times; returns the per-call results and durations in call order. *)
let repeat_for ?(min_reps = 3) ~seconds f =
  let t_end = now () +. seconds in
  let rec go acc n =
    if n >= min_reps && now () >= t_end then List.rev acc
    else go (timed f :: acc) (n + 1)
  in
  go [] 0

(* Set-up [reps] times and keep the last result; [release] tears down
   every earlier one (a daemon, for instance). *)
let setup_reps ?(release = ignore) ~reps f =
  let rec go k times =
    let r, dt = timed f in
    if k = reps then (r, List.rev (dt :: times))
    else begin
      release r;
      go (k + 1) (dt :: times)
    end
  in
  go 1 []

(* ---- order statistics --------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between order statistics. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

(* The run's fast decile. The host is shared: neighbours slow this
   machine down in episodes of a few seconds, which move a run's median
   by up to a third while its fastest samples stay put. Throughputs
   report the 90th percentile of the per-sample rates and times the
   10th percentile of the per-sample times, so every end-to-end figure
   is a property of the program, not of the neighbours. *)
let fast_rate xs = quantile xs 0.9
let fast_time xs = quantile xs 0.1
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* The highest of the usual percentiles that still has at least ten
   samples beyond it, as [(percentile, value)]. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  List.find_map
    (fun p -> if n *. (1. -. (p /. 100.)) >= 10. then Some (p, quantile xs (p /. 100.)) else None)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail_info label unit_ xs =
  match tail xs with
  | Some (p, v) ->
      (label, Printf.sprintf "%.4f %s (p%g of %d samples)" v unit_ p (List.length xs))
  | None -> (label, Printf.sprintf "n/a (%d samples)" (List.length xs))

(* ---- process facts ------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Peak RSS grows in steps with the GC's heap, so a time-bounded run's
   final peak depends on how long it ran. [rss_after f] wraps a sample
   function so the peak is read right after sample [rss_samples], a
   fixed amount of work; the second closure returns it. *)
let rss_samples = 5

let rss_after f =
  let n = ref 0 and rss = ref nan in
  ( (fun () ->
      let r = f () in
      incr n;
      if !n = rss_samples then rss := peak_rss_mb ();
      r),
    fun () -> if Float.is_nan !rss then peak_rss_mb () else !rss )

(* Words allocated so far by this domain: the exact minor count plus
   direct major allocations (major minus promoted words). *)
let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let nproc = Domain.recommended_domain_count ()

(* Bitwise float equality (NaN-safe, signed-zero-strict). *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_bits_array a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_bits_tensor a b =
  T.rows a = T.rows b && T.cols a = T.cols b && same_bits_array (T.to_row_array a) (T.to_row_array b)

(* Directory for run artefacts (daemon logs, checkpoints, span dumps),
   inside the checkout. *)
let run_dir = ".perfbench_run"

let ensure_run_dir () = if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755

(* ---- span recorder ------------------------------------------------------ *)

(* Spans opened by the benchmark around each public call into a layer.
   A span's layer is its name up to the first dot; spans named [run.*]
   are the benchmark's own loop and count as [other]. Spans are kept in
   memory (the recorder is safe to use from pool domains and client
   threads) and written out once the run ends. Parents are passed
   explicitly, so spans opened inside a pool task hang under the span of
   the pass that submitted it. *)
module Trace = struct
  type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

  type t = { run : string; mu : Mutex.t; next : int Atomic.t; mutable spans : span list }

  let create run = { run; mu = Mutex.create (); next = Atomic.make 0; spans = [] }

  let span tr ?(parent = -1) name f =
    let id = Atomic.fetch_and_add tr.next 1 in
    let t0 = now () in
    let r = f id in
    let t1 = now () in
    Mutex.lock tr.mu;
    tr.spans <- { id; parent; name; t0; t1 } :: tr.spans;
    Mutex.unlock tr.mu;
    r

  let dur s = s.t1 -. s.t0

  let named tr name = List.filter (fun s -> s.name = name) tr.spans
  let total tr name = List.fold_left (fun a s -> a +. dur s) 0. (named tr name)
  let count tr name = List.length (named tr name)

  let layer_of name =
    match String.index_opt name '.' with
    | Some i when String.sub name 0 i <> "run" -> String.sub name 0 i
    | _ -> "other"

  (* Length of the union of [intervals] clipped to [lo, hi]. *)
  let covered ~lo ~hi intervals =
    let iv =
      List.sort compare
        (List.filter_map
           (fun (a, b) ->
             let a = Float.max lo a and b = Float.min hi b in
             if b > a then Some (a, b) else None)
           intervals)
    in
    let len, last =
      List.fold_left
        (fun (len, cur) (a, b) ->
          match cur with
          | None -> (len, Some (a, b))
          | Some (ca, cb) when a <= cb -> (len, Some (ca, Float.max cb b))
          | Some (ca, cb) -> (len +. (cb -. ca), Some (a, b)))
        (0., None) iv
    in
    match last with Some (a, b) -> len +. (b -. a) | None -> len

  (* Self time per layer (seconds): each span's duration minus the part
     its children cover. [wall] x [lanes] is the thread time the pass
     had; whatever no root span covers is added to [other], so the
     layers account for all of it. Returns [(layer, seconds)] and the
     accounted total. *)
  let self_times ~wall ~lanes tr =
    let kids = Hashtbl.create 1024 in
    List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) tr.spans;
    let acc = Hashtbl.create 16 in
    let add layer v =
      Hashtbl.replace acc layer (v +. Option.value (Hashtbl.find_opt acc layer) ~default:0.)
    in
    List.iter
      (fun s -> add (layer_of s.name) (dur s -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id)))
      tr.spans;
    let roots = List.fold_left (fun a s -> if s.parent < 0 then a +. dur s else a) 0. tr.spans in
    add "other" (Float.max 0. ((wall *. float_of_int lanes) -. roots));
    let layers = Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] in
    (List.sort compare layers, List.fold_left (fun a (_, v) -> a +. v) 0. layers)

  (* [<prefix>.self.<layer>_pct] for each of [layers] (and [other]),
     shares of the accounted thread time. *)
  let self_metrics ~prefix ~layers ~wall ~lanes tr =
    let times, total = self_times ~wall ~lanes tr in
    let get l = Option.value (List.assoc_opt l times) ~default:0. in
    let unnamed = List.filter (fun (l, _) -> not (List.mem l layers)) times in
    let other = List.fold_left (fun a (_, v) -> a +. v) 0. unnamed in
    List.map
      (fun l ->
        metric (Printf.sprintf "%s.self.%s_pct" prefix l) "%" (100. *. get l /. total))
      (List.filter (fun l -> l <> "other") layers)
    @ [ metric (prefix ^ ".self.other_pct") "%" (100. *. other /. total) ]

  let write tr path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Json.render
             (Json.Obj
                [
                  ("run", Json.String tr.run);
                  ("id", Json.Num (float_of_int s.id));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("name", Json.String s.name);
                  ("start", Json.Num s.t0);
                  ("end", Json.Num s.t1);
                ]));
        output_char oc '\n')
      (List.rev tr.spans);
    close_out oc
end

(* Tracing overhead of a pass, in percent: the traced time per op
   against the untraced time per op measured in the same process. *)
let overhead_metric prefix ~untraced ~traced =
  metric (prefix ^ ".trace_overhead_pct") "%" (100. *. ((traced /. untraced) -. 1.))

(* Multicore Monte-Carlo engine tests: the Pool work-queue itself, and
   the parallel-parity properties that pin down the determinism
   contract — a pooled evaluation at any worker count is bit-identical
   to the sequential path, because every MC draw owns a pre-split child
   RNG stream and results are accumulated in index order.

   The POOL_SIZE environment variable (default 4) selects the worker
   count for the env-driven parity group; test/dune re-runs this binary
   under POOL_SIZE=1 and POOL_SIZE=4 so both the sequential fallback
   and the multi-domain path are exercised on every `dune runtest`. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng
module Pool = Pnc_util.Pool
module Network = Pnc_core.Network
module Model = Pnc_core.Model
module Variation = Pnc_core.Variation
module Mc_loss = Pnc_core.Mc_loss
module Train = Pnc_core.Train
module Yield = Pnc_core.Yield
module Sensitivity = Pnc_core.Sensitivity

let env_pool_size =
  match Sys.getenv_opt "POOL_SIZE" with
  | Some s -> (try int_of_string (String.trim s) with _ -> 4)
  | None -> 4

(* Pool unit tests ------------------------------------------------------- *)

let test_map_preserves_order () =
  Pool.with_pool ~size:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int)) "map = List.map" (List.map (fun x -> (3 * x) + 1) xs)
        (Pool.map pool (fun x -> (3 * x) + 1) xs);
      let arr = Pool.init pool ~n:257 (fun i -> i * i) in
      Alcotest.(check (array int)) "init = Array.init" (Array.init 257 (fun i -> i * i)) arr)

let test_small_pool_is_plain_map () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          Alcotest.(check int) "size recorded" size (Pool.size pool);
          let xs = List.init 50 Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "size-%d pool = List.map" size)
            (List.map succ xs) (Pool.map pool succ xs)))
    [ 0; 1 ]

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool ~size:3 (fun pool ->
      (* The lowest-indexed failure is the one re-raised, deterministically. *)
      (match Pool.init pool ~n:20 (fun i -> if i mod 7 = 3 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest-indexed failure" 3 i);
      (* The worker that ran the raising task kept going: the pool is
         not wedged and later submissions complete. *)
      Alcotest.(check (array int)) "pool survives" (Array.init 64 Fun.id)
        (Pool.init pool ~n:64 Fun.id))

let test_shutdown_joins_and_rejects () =
  let pool = Pool.create ~size:3 () in
  let hits = Atomic.make 0 in
  Pool.run pool (List.init 30 (fun _ () -> Atomic.incr hits));
  Alcotest.(check int) "all tasks ran" 30 (Atomic.get hits);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  (match Pool.init pool ~n:4 Fun.id with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ());
  (* A 0/1-size pool shuts down trivially (no domains were spawned). *)
  let seq = Pool.create ~size:1 () in
  Pool.shutdown seq

let test_stress_many_tiny_tasks () =
  Pool.with_pool ~size:4 (fun pool ->
      let arr = Pool.init pool ~n:1000 (fun i -> i lxor 0x55) in
      Alcotest.(check (array int)) "1000 tiny tasks" (Array.init 1000 (fun i -> i lxor 0x55)) arr)

let test_nested_submit_rejected () =
  Pool.with_pool ~size:2 (fun pool ->
      let results =
        Pool.init pool ~n:4 (fun i ->
            (* Submitting from inside a task must fail cleanly (a full
               pool would otherwise deadlock on itself). *)
            match Pool.init pool ~n:2 Fun.id with
            | _ -> `Accepted
            | exception Invalid_argument _ -> `Rejected i)
      in
      Array.iteri
        (fun i r -> Alcotest.(check bool) "nested rejected" true (r = `Rejected i))
        results;
      (* ... and the rejection left the pool fully operational. *)
      Alcotest.(check (array int)) "pool usable after" (Array.init 32 Fun.id)
        (Pool.init pool ~n:32 Fun.id))

(* When the runtime runs out of domains part-way through [create], the
   workers already started are stopped and joined before [Failure]
   escapes. The test holds every domain slot but one, so a 3-worker
   pool starts its first worker and fails on the second; that slot
   must be free again once [create] has raised. *)
let test_failed_spawn_stops_started_workers () =
  (* A gate parks the domains spawned on it until it is released. *)
  let gates = ref [] in
  let gate () =
    let m = Mutex.create () in
    Mutex.lock m;
    let g = (m, ref [], ref true) in
    gates := g :: !gates;
    g
  in
  let park (m, ds, _) = ds := Domain.spawn (fun () -> Mutex.lock m; Mutex.unlock m) :: !ds in
  let release (m, ds, shut) =
    if !shut then begin
      shut := false;
      Mutex.unlock m;
      List.iter Domain.join !ds
    end
  in
  let spare = gate () and rest = gate () and probe = gate () in
  Fun.protect
    ~finally:(fun () -> List.iter release !gates)
    (fun () ->
      park spare;
      (try
         while true do
           park rest
         done
       with Failure _ -> ());
      release spare;
      (match Pool.create ~size:3 () with
      | pool ->
          Pool.shutdown pool;
          Alcotest.fail "a 3-worker pool started with one domain slot free"
      | exception Failure _ -> ());
      match park probe with
      | () -> ()
      | exception Failure _ -> Alcotest.fail "the started worker still holds its slot")

(* Parallel parity properties ------------------------------------------- *)

(* Random small eval configurations — a qgen generator: each case
   draws its model, input and Monte-Carlo settings from its own indexed
   child stream (the MC seed is drawn too, so a failing case replays
   its exact estimator run from the reported QGEN_SEED). *)
let config_gen rng =
  let arch = if Rng.bool rng then Network.Adapt else Network.Ptpnc in
  let classes = 2 + Rng.int rng 2 in
  let hidden = 2 + Rng.int rng 3 in
  let batch = 3 + Rng.int rng 5 in
  let time = 8 + Rng.int rng 9 in
  let n_draws = 1 + Rng.int rng 6 in
  let level = [| 0.05; 0.1; 0.2 |].(Rng.int rng 3) in
  let antithetic = Rng.bool rng in
  let mc_seed = Rng.int rng 10_000 in
  let net = Network.create ~hidden rng arch ~inputs:1 ~classes in
  let x = T.uniform rng ~rows:batch ~cols:time ~lo:(-1.) ~hi:1. in
  let labels = Array.init batch (fun i -> i mod classes) in
  (Model.Circuit net, x, labels, n_draws, Variation.uniform level, antithetic, mc_seed)

let pp_config (model, x, _, n, _, antithetic, mc_seed) =
  let arch =
    match model with
    | Model.Circuit net -> Network.arch_name (Network.arch net)
    | Model.Reference _ -> "Reference"
  in
  Printf.sprintf "%s batch=%d time=%d draws=%d antithetic=%b mc_seed=%d" arch (T.rows x)
    (T.cols x) n antithetic mc_seed

let test_mc_parity_across_worker_counts () =
  Qgen.check ~count:8 ~name:"mc parity across worker counts" ~pp:pp_config config_gen
    (fun (model, x, labels, n, spec, antithetic, mc_seed) ->
      let seq =
        Mc_loss.expected_value ~antithetic ~rng:(Rng.create ~seed:mc_seed) ~spec ~n model ~x
          ~labels
      in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              let par =
                Mc_loss.expected_value ~antithetic ~pool ~rng:(Rng.create ~seed:mc_seed) ~spec
                  ~n model ~x ~labels
              in
              seq = par))
        [ 1; 2; 4 ])

let test_mc_parity_at_env_pool_size () =
  (* The POOL_SIZE-driven run: dune executes this binary under both
     POOL_SIZE=1 and POOL_SIZE=4. *)
  Pool.with_pool ~size:env_pool_size (fun pool ->
      Qgen.check ~count:4
        ~name:(Printf.sprintf "mc parity at POOL_SIZE=%d" env_pool_size)
        ~pp:pp_config config_gen
        (fun (model, x, labels, n, spec, antithetic, mc_seed) ->
          let seq =
            Mc_loss.expected_value ~antithetic ~rng:(Rng.create ~seed:mc_seed) ~spec ~n model
              ~x ~labels
          in
          let par =
            Mc_loss.expected_value ~antithetic ~pool ~rng:(Rng.create ~seed:mc_seed) ~spec ~n
              model ~x ~labels
          in
          seq = par))

let small_dataset ~classes ~batch ~time k =
  let rng = Rng.create ~seed:(3000 + k) in
  {
    Pnc_data.Dataset.name = "synthetic";
    x = Array.init batch (fun _ -> Array.init time (fun _ -> Rng.uniform rng ~lo:(-1.) ~hi:1.));
    y = Array.init batch (fun i -> i mod classes);
    n_classes = classes;
  }

let test_sweep_worker_count_invariance () =
  let rng = Rng.create ~seed:77 in
  let net = Network.create ~hidden:3 rng Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let d = small_dataset ~classes:2 ~batch:8 ~time:12 0 in
  let spec = Variation.uniform 0.15 in
  let acc_seq =
    Train.accuracy_under_variation ~rng:(Rng.create ~seed:5) ~spec ~draws:6 model d
  in
  let yield_seq =
    Yield.estimate ~rng:(Rng.create ~seed:6) ~spec ~threshold:0.5 ~draws:6 model d
  in
  let sens_seq = Sensitivity.analyze ~rng:(Rng.create ~seed:7) ~level:0.15 ~draws:5 net d in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let acc =
            Train.accuracy_under_variation ~pool ~rng:(Rng.create ~seed:5) ~spec ~draws:6 model d
          in
          Alcotest.(check bool)
            (Printf.sprintf "accuracy_under_variation invariant at %d workers" size)
            true (acc = acc_seq);
          let yld =
            Yield.estimate ~pool ~rng:(Rng.create ~seed:6) ~spec ~threshold:0.5 ~draws:6 model d
          in
          Alcotest.(check bool)
            (Printf.sprintf "yield invariant at %d workers" size)
            true
            (yld.Yield.mean_acc = yield_seq.Yield.mean_acc
            && yld.Yield.std_acc = yield_seq.Yield.std_acc
            && yld.Yield.worst = yield_seq.Yield.worst
            && yld.Yield.best = yield_seq.Yield.best
            && yld.Yield.yield = yield_seq.Yield.yield);
          let sens =
            Sensitivity.analyze ~pool ~rng:(Rng.create ~seed:7) ~level:0.15 ~draws:5 net d
          in
          List.iter2
            (fun (a : Sensitivity.row) (b : Sensitivity.row) ->
              Alcotest.(check bool)
                (Printf.sprintf "sensitivity invariant at %d workers" size)
                true
                (a.Sensitivity.accuracy = b.Sensitivity.accuracy))
            sens_seq sens))
    [ 2; 4 ]

(* Per-domain workspaces --------------------------------------------------- *)

(* Every domain the pool spawns runs on the small minor heap; the
   caller's domain keeps its own. *)
let test_worker_minor_heap () =
  let caller = (Gc.get ()).minor_heap_size in
  Alcotest.(check int) "Pool.spawn" Pool.minor_heap_words
    (Domain.join (Pool.spawn (fun () -> (Gc.get ()).minor_heap_size)));
  Pool.with_pool ~size:2 (fun pool ->
      Array.iter
        (Alcotest.(check int) "worker minor heap words" Pool.minor_heap_words)
        (Pool.init pool ~n:8 (fun _ -> (Gc.get ()).minor_heap_size)));
  Alcotest.(check int) "caller's heap untouched" caller (Gc.get ()).minor_heap_size

(* Forwards of mixed shapes (rows, steps, first- and second-order
   filters) interleaved on the workers' per-domain workspaces: every
   task's logits equal the sequential run's, bit for bit. *)
let mixed_forwards () =
  let rng = Rng.create ~seed:91 in
  let nets =
    List.map
      (fun arch -> Network.create ~hidden:3 rng arch ~inputs:1 ~classes:3)
      [ Network.Ptpnc; Network.Adapt ]
  in
  let xs =
    List.map
      (fun (rows, time) -> T.uniform rng ~rows ~cols:time ~lo:(-1.) ~hi:1.)
      [ (3, 9); (17, 9); (17, 24); (40, 5) ]
  in
  let cases = Array.of_list (List.concat_map (fun net -> List.map (fun x -> (net, x)) xs) nets) in
  Array.init 48 (fun i ->
      let net, x = cases.((i * 5) mod Array.length cases) in
      fun () ->
        let draw = Variation.make_draw (Rng.create ~seed:i) (Variation.uniform 0.1) in
        Network.forward_batch_t ~draw net x)

let test_mixed_shapes_on_workers () =
  let tasks = mixed_forwards () in
  let sequential = Array.map (fun f -> f ()) tasks in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled = Pool.init pool ~n:(Array.length tasks) (fun i -> tasks.(i) ()) in
          Array.iteri
            (fun i l ->
              Alcotest.(check bool)
                (Printf.sprintf "task %d at %d workers" i size)
                true
                (T.equal_eps ~eps:0. l sequential.(i)))
            pooled))
    [ 2; 4; env_pool_size ]

(* Estimates on one pool across a change of shape, which refits every
   worker's workspace, and back: identical to the sequential ones at
   1, 2 and 4 workers. *)
let test_estimates_across_shape_change () =
  let net = Network.create ~hidden:3 (Rng.create ~seed:78) Network.Adapt ~inputs:1 ~classes:2 in
  let model = Model.Circuit net in
  let spec = Variation.uniform 0.15 in
  let a = small_dataset ~classes:2 ~batch:8 ~time:12 1
  and b = small_dataset ~classes:2 ~batch:5 ~time:20 2 in
  let estimate ?pool d =
    Train.accuracy_under_variation ?pool ~rng:(Rng.create ~seed:5) ~spec ~draws:7 model d
  in
  let loss ?pool (d : Pnc_data.Dataset.t) =
    let x = T.of_rows d.x in
    Mc_loss.expected_value ?pool ~rng:(Rng.create ~seed:6) ~spec ~n:5 model ~x ~labels:d.y
  in
  let run ?pool () =
    [ estimate ?pool a; loss ?pool b; estimate ?pool b; loss ?pool a; estimate ?pool a ]
  in
  let sequential = run () in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "estimates at %d workers" size)
            true
            (run ~pool () = sequential)))
    [ 1; 2; 4 ]

(* RNG stream independence ----------------------------------------------- *)

let test_split_n_reproducible_and_distinct () =
  let mk () = Rng.split_n (Rng.create ~seed:21) 8 in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i ra ->
      let xs = Array.init 32 (fun _ -> Rng.int ra 1_000_000) in
      let ys = Array.init 32 (fun _ -> Rng.int b.(i) 1_000_000) in
      Alcotest.(check (array int)) (Printf.sprintf "child %d reproducible" i) xs ys)
    a;
  (* Distinct children produce distinct streams. *)
  let c = mk () in
  let streams = Array.map (fun r -> Array.init 16 (fun _ -> Rng.int r 1_000_000)) c in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj -> if i < j then Alcotest.(check bool) "children differ" false (si = sj))
        streams)
    streams

let test_split_n_insensitive_to_parent_consumption () =
  (* Children are a function of the parent state at the split point:
     consuming the parent afterwards must not perturb them, and the
     number of siblings requested must not change child i. *)
  let p1 = Rng.create ~seed:33 in
  let c1 = Rng.split_n p1 6 in
  for _ = 1 to 1000 do
    ignore (Rng.int p1 1000)
  done;
  let p2 = Rng.create ~seed:33 in
  let c2 = Rng.split_n p2 12 in
  for i = 0 to 5 do
    let xs = Array.init 32 (fun _ -> Rng.int c1.(i) 1_000_000) in
    let ys = Array.init 32 (fun _ -> Rng.int c2.(i) 1_000_000) in
    Alcotest.(check (array int)) (Printf.sprintf "child %d stable" i) xs ys
  done;
  (* The split itself consumes a fixed amount of the parent stream,
     independent of n: both parents continue identically. *)
  let tail r = Array.init 16 (fun _ -> Rng.int r 1_000_000) in
  let p3 = Rng.create ~seed:34 and p4 = Rng.create ~seed:34 in
  ignore (Rng.split_n p3 1);
  ignore (Rng.split_n p4 64);
  Alcotest.(check (array int)) "parent consumption independent of n" (tail p3) (tail p4)

let chi_square_uniform xs ~bins =
  let n = Array.length xs in
  let counts = Array.make bins 0 in
  Array.iter (fun x -> counts.(x) <- counts.(x) + 1) xs;
  let expect = float_of_int n /. float_of_int bins in
  Array.fold_left (fun acc c -> acc +. (((float_of_int c -. expect) ** 2.) /. expect)) 0. counts

let test_split_children_uncorrelated () =
  (* Joint-occupancy chi-square over pairs (x from child i, y from
     child j) binned 4x4: if the streams were correlated the joint
     distribution would deviate from uniform. df = 15; 50 is far in
     the tail (p < 1e-5), so a pass is a strong sanity bound while the
     deterministic seeds keep the test stable. *)
  let children = Rng.split_n (Rng.create ~seed:55) 4 in
  let pairs = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  List.iter
    (fun (i, j) ->
      let n = 2000 in
      let joint =
        Array.init n (fun _ ->
            let x = Rng.int children.(i) 4 and y = Rng.int children.(j) 4 in
            (4 * x) + y)
      in
      let stat = chi_square_uniform joint ~bins:16 in
      Alcotest.(check bool)
        (Printf.sprintf "children %d,%d chi2 %.1f < 50" i j stat)
        true (stat < 50.))
    pairs;
  (* Same bound for legacy sequential split children. *)
  let p = Rng.create ~seed:56 in
  let a = Rng.split p in
  let b = Rng.split p in
  let n = 2000 in
  let joint =
    Array.init n (fun _ ->
        let x = Rng.int a 4 and y = Rng.int b 4 in
        (4 * x) + y)
  in
  let stat = chi_square_uniform joint ~bins:16 in
  Alcotest.(check bool) (Printf.sprintf "split chi2 %.1f < 50" stat) true (stat < 50.)

(* Re-seeded reproducibility regression ---------------------------------- *)

let test_reseeded_run_reproduces_draw_sequence () =
  (* The sequential engine is a deterministic function of the seed:
     re-seeding reproduces the per-draw eps/mu/v0 samples and the MC
     estimate exactly — the reproducibility guarantee the no-grad fast
     path shipped with, now routed through per-draw pre-splitting. *)
  let spec = Variation.uniform 0.1 in
  let sample_sequence seed =
    let rngs = Rng.split_n (Rng.create ~seed) 5 in
    Array.map
      (fun r ->
        let d = Variation.make_draw r spec in
        ( Variation.eps_for d ~rows:2 ~cols:3,
          Variation.mu_for d ~cols:3,
          Variation.v0_for d ~cols:3 ))
      rngs
  in
  let s1 = sample_sequence 9 and s2 = sample_sequence 9 in
  Array.iteri
    (fun i (e1, m1, v1) ->
      let e2, m2, v2 = s2.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "draw %d reproduced" i)
        true
        (T.equal_eps ~eps:0. e1 e2 && T.equal_eps ~eps:0. m1 m2 && T.equal_eps ~eps:0. v1 v2))
    s1;
  let model, x, labels, n, spec, _, _ = config_gen (Rng.create ~seed:1714) in
  let v1 = Mc_loss.expected_value ~rng:(Rng.create ~seed:13) ~spec ~n model ~x ~labels in
  let v2 = Mc_loss.expected_value ~rng:(Rng.create ~seed:13) ~spec ~n model ~x ~labels in
  Alcotest.(check bool) "re-seeded MC estimate identical" true (v1 = v2)

let () =
  Alcotest.run "pnc_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "size 0/1 = plain map" `Quick test_small_pool_is_plain_map;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates_and_pool_survives;
          Alcotest.test_case "shutdown joins + rejects" `Quick test_shutdown_joins_and_rejects;
          Alcotest.test_case "1000 tiny tasks" `Quick test_stress_many_tiny_tasks;
          Alcotest.test_case "nested submit rejected" `Quick test_nested_submit_rejected;
          Alcotest.test_case "failed spawn stops started workers" `Quick
            test_failed_spawn_stops_started_workers;
        ] );
      ( "parity",
        [
          Alcotest.test_case "mc 1/2/4 workers bit-identical" `Quick
            test_mc_parity_across_worker_counts;
          Alcotest.test_case "mc POOL_SIZE parity" `Quick test_mc_parity_at_env_pool_size;
          Alcotest.test_case "sweeps worker-count-invariant" `Quick
            test_sweep_worker_count_invariance;
        ] );
      ( "workspaces",
        [
          Alcotest.test_case "workers run on the small minor heap" `Quick test_worker_minor_heap;
          Alcotest.test_case "mixed shapes on workers = sequential" `Quick
            test_mixed_shapes_on_workers;
          Alcotest.test_case "estimates across a shape change" `Quick
            test_estimates_across_shape_change;
        ] );
      ( "rng-streams",
        [
          Alcotest.test_case "split_n reproducible" `Quick test_split_n_reproducible_and_distinct;
          Alcotest.test_case "split_n parent-consumption-insensitive" `Quick
            test_split_n_insensitive_to_parent_consumption;
          Alcotest.test_case "children uncorrelated (chi2)" `Quick test_split_children_uncorrelated;
          Alcotest.test_case "re-seeded draw sequence" `Quick
            test_reseeded_run_reproduces_draw_sequence;
        ] );
    ]

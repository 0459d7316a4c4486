(* Tests for the reverse-mode autodiff engine, centred on comparing
   analytic gradients against central finite differences. *)

module T = Pnc_tensor.Tensor
module Var = Pnc_autodiff.Var
module Loss = Pnc_autodiff.Loss
module Rng = Pnc_util.Rng

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* Numerically check d(f)/d(params) against backward on a fresh graph per
   evaluation. [f] must rebuild the graph from the given leaf tensors. *)
let gradient_check ?(h = 1e-5) ?(tol = 1e-4) ~params ~f () =
  let leaves = List.map Var.param params in
  let out = f leaves in
  List.iter Var.zero_grad leaves;
  Var.backward out;
  let analytic = List.map (fun v -> T.copy (Var.grad v)) leaves in
  List.iteri
    (fun pi p ->
      let g = List.nth analytic pi in
      for r = 0 to T.rows p - 1 do
        for c = 0 to T.cols p - 1 do
          let orig = T.get p r c in
          T.set p r c (orig +. h);
          let f_plus = T.get_scalar (Var.value (f (List.map Var.param params))) in
          T.set p r c (orig -. h);
          let f_minus = T.get_scalar (Var.value (f (List.map Var.param params))) in
          T.set p r c orig;
          let fd = (f_plus -. f_minus) /. (2. *. h) in
          let an = T.get g r c in
          let scale = Float.max 1. (Float.max (Float.abs fd) (Float.abs an)) in
          if Float.abs (fd -. an) /. scale > tol then
            Alcotest.failf "grad mismatch param %d (%d,%d): fd=%.8f analytic=%.8f" pi r c fd an
        done
      done)
    params

let rand_t rng ~rows ~cols = T.uniform rng ~rows ~cols ~lo:(-1.5) ~hi:1.5
let rand_pos rng ~rows ~cols = T.uniform rng ~rows ~cols ~lo:0.2 ~hi:2.

let scalarize v = Var.sum v

(* Basic op values -------------------------------------------------------- *)

let test_values () =
  let a = Var.const (T.of_row [| 1.; -2. |]) in
  let b = Var.const (T.of_row [| 3.; 4. |]) in
  let check name expected v =
    Alcotest.(check bool) name true (T.equal_eps ~eps:1e-9 (T.of_row expected) (Var.value v))
  in
  check "add" [| 4.; 2. |] (Var.add a b);
  check "sub" [| -2.; -6. |] (Var.sub a b);
  check "mul" [| 3.; -8. |] (Var.mul a b);
  check "div" [| 1. /. 3.; -0.5 |] (Var.div a b);
  check "abs" [| 1.; 2. |] (Var.abs a);
  Alcotest.(check bool) "tanh value" true
    (approx ~eps:1e-12 (tanh 1.) (T.get (Var.value (Var.tanh a)) 0 0))

let test_backward_simple () =
  (* d/dx sum (x * x) = 2x *)
  let x = Var.param (T.of_row [| 1.; 2.; 3. |]) in
  let out = Var.sum (Var.mul x x) in
  Var.backward out;
  Alcotest.(check bool) "2x" true
    (T.equal_eps ~eps:1e-12 (T.of_row [| 2.; 4.; 6. |]) (Var.grad x))

let test_backward_accumulates_reuse () =
  (* y = sum(x + x): the same node used twice must receive both
     contributions. *)
  let x = Var.param (T.of_row [| 1.; 1. |]) in
  let out = Var.sum (Var.add x x) in
  Var.backward out;
  Alcotest.(check bool) "grad = 2" true
    (T.equal_eps ~eps:1e-12 (T.of_row [| 2.; 2. |]) (Var.grad x))

let test_zero_grad () =
  let x = Var.param (T.of_row [| 3. |]) in
  let run () = Var.backward (Var.sum (Var.mul x x)) in
  run ();
  run ();
  Alcotest.(check bool) "two backwards accumulate" true
    (approx ~eps:1e-12 12. (T.get (Var.grad x) 0 0));
  Var.zero_grad x;
  run ();
  Alcotest.(check bool) "after zero_grad" true (approx ~eps:1e-12 6. (T.get (Var.grad x) 0 0))

let test_const_gets_no_grad () =
  let x = Var.param (T.of_row [| 2. |]) in
  let c = Var.const (T.of_row [| 5. |]) in
  Var.backward (Var.sum (Var.mul x c));
  Alcotest.(check bool) "const requires no grad" false (Var.requires_grad c);
  Alcotest.(check bool) "param grad = c" true (approx ~eps:1e-12 5. (T.get (Var.grad x) 0 0))

(* Finite-difference checks on each op ------------------------------------ *)

let fd_case name build =
  Alcotest.test_case name `Quick (fun () -> build ())

let rng = Rng.create ~seed:2024

let test_fd_elementwise () =
  let a = rand_t rng ~rows:3 ~cols:2 and b = rand_pos rng ~rows:3 ~cols:2 in
  gradient_check ~params:[ a; b ]
    ~f:(fun vs ->
      match vs with
      | [ x; y ] -> scalarize (Var.mul (Var.add x y) (Var.div x y))
      | _ -> assert false)
    ()

let test_fd_matmul () =
  let a = rand_t rng ~rows:3 ~cols:4 and b = rand_t rng ~rows:4 ~cols:2 in
  gradient_check ~params:[ a; b ]
    ~f:(fun vs ->
      match vs with
      | [ x; y ] -> scalarize (Var.matmul x y)
      | _ -> assert false)
    ()

let test_fd_tanh_chain () =
  let a = rand_t rng ~rows:2 ~cols:3 in
  gradient_check ~params:[ a ]
    ~f:(fun vs ->
      match vs with
      | [ x ] -> scalarize (Var.tanh (Var.scale 0.7 (Var.add_scalar 0.1 x)))
      | _ -> assert false)
    ()

let test_fd_abs () =
  (* keep away from the kink at 0 *)
  let a = T.of_rows [| [| 0.7; -1.3 |]; [| 2.1; -0.4 |] |] in
  gradient_check ~params:[ a ]
    ~f:(fun vs -> match vs with [ x ] -> scalarize (Var.abs x) | _ -> assert false)
    ()

let test_fd_broadcast () =
  let m = rand_t rng ~rows:4 ~cols:3 in
  let rv = rand_pos rng ~rows:1 ~cols:3 in
  gradient_check ~params:[ m; rv ]
    ~f:(fun vs ->
      match vs with
      | [ x; r ] -> scalarize (Var.tanh (Var.div_rv (Var.mul_rv (Var.add_rv x r) r) (Var.add_scalar 1. (Var.abs r))))
      | _ -> assert false)
    ()

let test_fd_sub_rv () =
  let m = rand_t rng ~rows:3 ~cols:2 in
  let rv = rand_t rng ~rows:1 ~cols:2 in
  gradient_check ~params:[ m; rv ]
    ~f:(fun vs ->
      match vs with
      | [ x; r ] -> scalarize (Var.sqr (Var.sub_rv x r))
      | _ -> assert false)
    ()

let test_fd_sum_rows () =
  let m = rand_t rng ~rows:4 ~cols:3 in
  gradient_check ~params:[ m ]
    ~f:(fun vs ->
      match vs with
      | [ x ] -> scalarize (Var.sqr (Var.sum_rows x))
      | _ -> assert false)
    ()

let test_fd_mean () =
  let a = rand_t rng ~rows:3 ~cols:3 in
  gradient_check ~params:[ a ]
    ~f:(fun vs -> match vs with [ x ] -> Var.mean (Var.sqr x) | _ -> assert false)
    ()

let test_fd_recurrence () =
  (* Mimics the filter unrolling: s_{k+1} = a ∘ s_k + b ∘ x_k over 5 steps. *)
  let coeff_a = T.uniform rng ~rows:1 ~cols:3 ~lo:0.1 ~hi:0.9 in
  let coeff_b = T.uniform rng ~rows:1 ~cols:3 ~lo:0.1 ~hi:0.9 in
  let xs = Array.init 5 (fun _ -> rand_t rng ~rows:2 ~cols:3) in
  gradient_check ~params:[ coeff_a; coeff_b ]
    ~f:(fun vs ->
      match vs with
      | [ a; b ] ->
          let state = ref (Var.const (T.zeros ~rows:2 ~cols:3)) in
          Array.iter
            (fun x -> state := Var.add (Var.mul_rv !state a) (Var.mul_rv (Var.const x) b))
            xs;
          scalarize (Var.sqr !state)
      | _ -> assert false)
    ()

let test_fd_affine_rv () =
  (* The fused filter-update op against finite differences. *)
  let s = rand_t rng ~rows:3 ~cols:4 in
  let a = rand_pos rng ~rows:1 ~cols:4 in
  let x = rand_t rng ~rows:3 ~cols:4 in
  let b = rand_pos rng ~rows:1 ~cols:4 in
  gradient_check ~params:[ s; a; x; b ]
    ~f:(fun vs ->
      match vs with
      | [ s; a; x; b ] -> scalarize (Var.sqr (Var.affine_rv s a x b))
      | _ -> assert false)
    ()

let test_affine_rv_value () =
  let s = Var.const (T.of_rows [| [| 1.; 2. |] |]) in
  let a = Var.const (T.of_row [| 0.5; 0.5 |]) in
  let x = Var.const (T.of_rows [| [| 4.; 8. |] |]) in
  let b = Var.const (T.of_row [| 0.25; 0.125 |]) in
  let out = Var.value (Var.affine_rv s a x b) in
  Alcotest.(check bool) "fused = s.a + x.b" true
    (T.equal_eps ~eps:1e-12 (T.of_rows [| [| 1.5; 2. |] |]) out)

let test_affine_rv_equals_unfused () =
  let mk () = rand_t rng ~rows:4 ~cols:3 in
  let s = Var.param (mk ()) and x = Var.param (mk ()) in
  let a = Var.param (rand_pos rng ~rows:1 ~cols:3) in
  let b = Var.param (rand_pos rng ~rows:1 ~cols:3) in
  let fused = Var.affine_rv s a x b in
  let unfused = Var.add (Var.mul_rv s a) (Var.mul_rv x b) in
  Alcotest.(check bool) "same forward" true
    (T.equal_eps ~eps:1e-12 (Var.value fused) (Var.value unfused));
  (* same gradients *)
  List.iter Var.zero_grad [ s; a; x; b ];
  Var.backward (Var.sum (Var.sqr fused));
  let g_fused = List.map (fun v -> T.copy (Var.grad v)) [ s; a; x; b ] in
  List.iter Var.zero_grad [ s; a; x; b ];
  Var.backward (Var.sum (Var.sqr unfused));
  let g_unfused = List.map (fun v -> T.copy (Var.grad v)) [ s; a; x; b ] in
  List.iter2
    (fun gf gu -> Alcotest.(check bool) "same gradient" true (T.equal_eps ~eps:1e-10 gf gu))
    g_fused g_unfused

let test_deep_chain_no_stack_overflow () =
  (* 10k-node chains must not blow the stack in backward. *)
  let x = Var.param (T.of_row [| 0.5 |]) in
  let y = ref x in
  for _ = 1 to 10_000 do
    y := Var.scale 0.9999 !y
  done;
  Var.backward (Var.sum !y);
  Alcotest.(check bool) "grad finite" true (Float.is_finite (T.get (Var.grad x) 0 0))

(* Tape and no-grad mode --------------------------------------------------- *)

let test_no_grad_records_nothing () =
  let x = Var.param (T.of_row [| 1.; 2. |]) in
  let before = Var.tape_recorded () in
  let y = Var.with_no_grad (fun () -> Var.tanh (Var.scale 2. (Var.add x x))) in
  Alcotest.(check int) "nothing on the tape" before (Var.tape_recorded ());
  Alcotest.(check bool) "result does not require grad" false (Var.requires_grad y);
  Alcotest.(check bool) "value still computed" true
    (approx ~eps:1e-12 (tanh 4.) (T.get (Var.value y) 0 0));
  (* backward through a no-grad node is a no-op on the leaves *)
  List.iter Var.zero_grad [ x ];
  Var.backward (Var.sum y);
  Alcotest.(check bool) "leaf grad untouched" true
    (T.equal_eps ~eps:0. (T.zeros ~rows:1 ~cols:2) (Var.grad x))

let test_no_grad_restores_mode () =
  Alcotest.(check bool) "off before" false !Var.no_grad;
  (try Var.with_no_grad (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "off after exception" false !Var.no_grad;
  let nested = Var.with_no_grad (fun () -> Var.with_no_grad (fun () -> !Var.no_grad)) in
  Alcotest.(check bool) "nested stays on" true nested;
  Alcotest.(check bool) "off after nesting" false !Var.no_grad

let test_grad_opt_non_allocating () =
  let x = Var.param (T.of_row [| 1.; 2. |]) in
  Alcotest.(check bool) "no grad yet" true (Var.grad_opt x = None);
  Var.backward (Var.sum (Var.scale 3. x));
  (match Var.grad_opt x with
  | None -> Alcotest.fail "grad expected after backward"
  | Some g -> Alcotest.(check bool) "grad value" true (T.equal_eps ~eps:1e-12 (T.of_row [| 3.; 3. |]) g));
  Var.zero_grad x;
  Alcotest.(check bool) "cleared" true (Var.grad_opt x = None)

let test_tape_backward_known_graph () =
  (* z = sum (a*b + tanh a): dz/da = b + 1 - tanh(a)^2, dz/db = a. *)
  let a_t = T.of_row [| 0.3; -0.7 |] and b_t = T.of_row [| 1.2; 0.4 |] in
  let a = Var.param a_t and b = Var.param b_t in
  Var.backward (Var.sum (Var.add (Var.mul a b) (Var.tanh a)));
  let exp_da =
    T.of_row (Array.map2 (fun bv av -> bv +. 1. -. (tanh av *. tanh av)) (T.row b_t 0) (T.row a_t 0))
  in
  Alcotest.(check bool) "dz/da" true (T.equal_eps ~eps:1e-12 exp_da (Var.grad a));
  Alcotest.(check bool) "dz/db" true (T.equal_eps ~eps:1e-12 a_t (Var.grad b));
  gradient_check ~params:[ T.copy a_t; T.copy b_t ]
    ~f:(fun l ->
      match l with
      | [ a; b ] -> Var.sum (Var.add (Var.mul a b) (Var.tanh a))
      | _ -> assert false)
    ()

let test_backward_twice_accumulates () =
  let x = Var.param (T.of_row [| 2. |]) in
  let y = Var.sum (Var.sqr x) in
  Var.backward y;
  Var.backward y;
  (* two passes over the same root accumulate on the leaf: 2 * 2x = 8 *)
  Alcotest.(check bool) "accumulated" true (approx ~eps:1e-12 8. (T.get (Var.grad x) 0 0))

let test_backward_cross_graph_after_backward () =
  (* A graph built before an earlier backward must still propagate when
     its own root is differentiated later (the tape is not truncated). *)
  let x = Var.param (T.of_row [| 1.5 |]) in
  let shared = Var.scale 2. x in
  let first = Var.sum (Var.sqr shared) in
  let second = Var.sum (Var.scale 3. shared) in
  Var.backward first;
  Var.zero_grad x;
  Var.backward second;
  Alcotest.(check bool) "second graph grad" true (approx ~eps:1e-12 6. (T.get (Var.grad x) 0 0))

(* Softmax cross-entropy --------------------------------------------------- *)

let test_ce_value () =
  (* Uniform logits over C classes -> loss = log C. *)
  let logits = Var.param (T.zeros ~rows:4 ~cols:3) in
  let labels = [| 0; 1; 2; 0 |] in
  let l = Loss.softmax_cross_entropy ~logits ~labels in
  Alcotest.(check bool) "log C" true (approx ~eps:1e-9 (log 3.) (T.get_scalar (Var.value l)))

let test_ce_gradient () =
  let logits = rand_t rng ~rows:5 ~cols:4 in
  let labels = [| 0; 3; 1; 2; 2 |] in
  gradient_check ~tol:1e-3
    ~params:[ logits ]
    ~f:(fun vs ->
      match vs with
      | [ x ] -> Loss.softmax_cross_entropy ~logits:x ~labels
      | _ -> assert false)
    ()

let test_ce_perfect_prediction () =
  let logits = Var.param (T.of_rows [| [| 30.; 0.; 0. |]; [| 0.; 30.; 0. |] |]) in
  let l = Loss.softmax_cross_entropy ~logits ~labels:[| 0; 1 |] in
  Alcotest.(check bool) "near zero" true (T.get_scalar (Var.value l) < 1e-9)

let test_softmax_rows () =
  let p = Loss.softmax_rows (T.of_rows [| [| 1.; 1.; 1. |]; [| 100.; 0.; 0. |] |]) in
  Alcotest.(check bool) "uniform row" true (approx ~eps:1e-9 (1. /. 3.) (T.get p 0 0));
  Alcotest.(check bool) "saturated row" true (approx ~eps:1e-9 1. (T.get p 1 0));
  Alcotest.(check bool) "rows sum to one" true (approx ~eps:1e-9 2. (T.sum p))

let test_requires_grad_propagation () =
  let p = Var.param (T.of_row [| 1. |]) in
  let c = Var.const (T.of_row [| 2. |]) in
  Alcotest.(check bool) "param requires" true (Var.requires_grad p);
  Alcotest.(check bool) "const does not" false (Var.requires_grad c);
  Alcotest.(check bool) "mix requires" true (Var.requires_grad (Var.mul p c));
  Alcotest.(check bool) "const-only does not" false (Var.requires_grad (Var.mul c c))

(* End-to-end gradient checks on the circuit models (satellite: PR 3) ------

   These drive the real network modules: a central-difference oracle
   over the *existing* parameter Vars of a randomly-configured SO-LF
   network (and each layer type in isolation), perturbing the leaf
   tensors in place. The FD side of the end-to-end check runs on the
   pure-tensor forward path, which is bit-identical to the Var path
   under the same draw — so any discrepancy is a backward bug, not a
   forward mismatch. *)

module Network = Pnc_core.Network
module Crossbar = Pnc_core.Crossbar
module Filter_layer = Pnc_core.Filter_layer
module Ptanh = Pnc_core.Ptanh
module Variation = Pnc_core.Variation

(* Central-difference check against [Var.backward] for parameters that
   already live inside a model. [loss_var] rebuilds the autodiff graph;
   [loss_val] recomputes the scalar loss from the current leaf tensors
   (it may use the no-grad tensor path). *)
let check_model_grads ?(h = 1e-5) ?(tol = 1e-5) ~what ~params ~loss_var ~loss_val () =
  List.iter Var.zero_grad params;
  Var.backward (loss_var ());
  let analytic = List.map (fun p -> T.copy (Var.grad p)) params in
  List.iteri
    (fun pi p ->
      let v = Var.value p in
      let g = List.nth analytic pi in
      for r = 0 to T.rows v - 1 do
        for c = 0 to T.cols v - 1 do
          let orig = T.get v r c in
          T.set v r c (orig +. h);
          let f_plus = loss_val () in
          T.set v r c (orig -. h);
          let f_minus = loss_val () in
          T.set v r c orig;
          let fd = (f_plus -. f_minus) /. (2. *. h) in
          let an = T.get g r c in
          let scale = Float.max 1. (Float.max (Float.abs fd) (Float.abs an)) in
          if Float.abs (fd -. an) /. scale > tol then
            Alcotest.failf "%s: grad mismatch param %d (%d,%d): fd=%.10f analytic=%.10f" what pi
              r c fd an
        done
      done)
    params

let random_labels rng ~batch ~classes = Array.init batch (fun _ -> Rng.int rng classes)

let check_network_end_to_end seed =
  let rng = Rng.create ~seed in
  let arch = if Rng.int rng 2 = 0 then Network.Ptpnc else Network.Adapt in
  let hidden = 2 + Rng.int rng 3 in
  let classes = 2 + Rng.int rng 2 in
  let batch = 2 + Rng.int rng 3 in
  let time = 4 + Rng.int rng 5 in
  let net = Network.create ~hidden rng arch ~inputs:1 ~classes in
  let x = T.uniform rng ~rows:batch ~cols:time ~lo:(-1.) ~hi:1. in
  let labels = random_labels rng ~batch ~classes in
  let draw = Variation.deterministic in
  check_model_grads
    ~what:
      (Printf.sprintf "net seed=%d %s h=%d c=%d b=%d t=%d" seed (Network.arch_name arch) hidden
         classes batch time)
    ~params:(Network.params net)
    ~loss_var:(fun () ->
      Loss.softmax_cross_entropy ~logits:(Network.forward ~draw net x) ~labels)
    ~loss_val:(fun () ->
      Loss.cross_entropy_value ~logits:(Network.forward_batch_t ~draw net x) ~labels)
    ()

let prop_network_gradients =
  Qgen.test_case ~count:50 ~pp:string_of_int ~shrink:Qgen.shrink_int
    "SO-LF network gradients match central differences"
    (Qgen.int_range 0 100_000)
    (fun seed ->
      check_network_end_to_end seed;
      true)

let layer_loss_val loss_var () = T.get_scalar (Var.value (loss_var ()))

let check_crossbar_grads seed =
  let rng = Rng.create ~seed in
  let inputs = 1 + Rng.int rng 4 and outputs = 1 + Rng.int rng 4 in
  let batch = 2 + Rng.int rng 3 in
  let cb = Crossbar.create rng ~inputs ~outputs in
  let x = Var.const (T.uniform rng ~rows:batch ~cols:inputs ~lo:(-1.) ~hi:1.) in
  let loss_var () = Var.sum (Var.sqr (Crossbar.forward ~draw:Variation.deterministic cb x)) in
  check_model_grads
    ~what:(Printf.sprintf "crossbar seed=%d" seed)
    ~params:(Crossbar.params cb) ~loss_var ~loss_val:(layer_loss_val loss_var) ()

let check_filter_grads seed =
  let rng = Rng.create ~seed in
  let order = if Rng.int rng 2 = 0 then Filter_layer.First else Filter_layer.Second in
  let features = 1 + Rng.int rng 4 in
  let batch = 2 + Rng.int rng 3 in
  let time = 3 + Rng.int rng 4 in
  let fl = Filter_layer.create rng order ~features in
  let xs =
    Array.init time (fun _ -> T.uniform rng ~rows:batch ~cols:features ~lo:(-1.) ~hi:1.)
  in
  let loss_var () =
    let realization =
      Filter_layer.realize ~ste:false fl (Filter_layer.realize_t ~draw:Variation.deterministic fl)
    in
    let state = ref (Filter_layer.init_state realization ~batch) in
    let acc = ref None in
    Array.iter
      (fun x ->
        let state', out = Filter_layer.step realization !state (Var.const x) in
        state := state';
        let term = Var.sum (Var.sqr out) in
        acc := Some (match !acc with None -> term | Some a -> Var.add a term))
      xs;
    match !acc with Some a -> a | None -> assert false
  in
  check_model_grads
    ~what:(Printf.sprintf "filter seed=%d" seed)
    ~params:(Filter_layer.params fl) ~loss_var ~loss_val:(layer_loss_val loss_var) ()

let check_ptanh_grads seed =
  let rng = Rng.create ~seed in
  let features = 1 + Rng.int rng 5 in
  let batch = 2 + Rng.int rng 3 in
  let pt = Ptanh.create rng ~features in
  let x = Var.const (T.uniform rng ~rows:batch ~cols:features ~lo:(-1.5) ~hi:1.5) in
  let loss_var () = Var.sum (Var.sqr (Ptanh.forward ~draw:Variation.deterministic pt x)) in
  check_model_grads
    ~what:(Printf.sprintf "ptanh seed=%d" seed)
    ~params:(Ptanh.params pt) ~loss_var ~loss_val:(layer_loss_val loss_var) ()

let prop_layer name check =
  Qgen.test_case ~count:20 ~pp:string_of_int ~shrink:Qgen.shrink_int name
    (Qgen.int_range 0 100_000)
    (fun seed ->
      check seed;
      true)

let prop_crossbar_gradients = prop_layer "crossbar gradients match FD" check_crossbar_grads
let prop_filter_gradients = prop_layer "filter-layer gradients match FD" check_filter_grads
let prop_ptanh_gradients = prop_layer "ptanh gradients match FD" check_ptanh_grads

(* Property: gradient of random polynomial DAGs matches FD ---------------- *)

let prop_random_dag =
  Qgen.test_case ~count:30 ~pp:string_of_int ~shrink:Qgen.shrink_int
    "random DAG gradients match finite differences"
    (Qgen.int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let a = rand_t rng ~rows:2 ~cols:2 and b = rand_pos rng ~rows:2 ~cols:2 in
      gradient_check ~tol:3e-3 ~params:[ a; b ]
        ~f:(fun vs ->
          match vs with
          | [ x; y ] ->
              let z =
                Var.add (Var.tanh (Var.matmul x y))
                  (Var.div (Var.sub x y) (Var.add_scalar 1. (Var.sqr y)))
              in
              Var.mean (Var.mul z z)
          | _ -> assert false)
        ();
      true)

(* Noise injection (straight-through estimator) --------------------------- *)

module Mc_loss = Pnc_core.Mc_loss
module Model = Pnc_core.Model
module Train = Pnc_core.Train
module Pool = Pnc_util.Pool

let tensors_bit_equal a b =
  T.rows a = T.rows b && T.cols a = T.cols b
  &&
  let ok = ref true in
  for r = 0 to T.rows a - 1 do
    for c = 0 to T.cols a - 1 do
      if not (T.get a r c = T.get b r c) then ok := false
    done
  done;
  !ok

let test_ste_mul_forward_and_backward () =
  let rng = Rng.create ~seed:90 in
  let v_t = T.uniform rng ~rows:3 ~cols:4 ~lo:(-1.5) ~hi:1.5 in
  let eps = T.uniform rng ~rows:3 ~cols:4 ~lo:0.8 ~hi:1.2 in
  let p_ste = Var.param (T.copy v_t) and p_mul = Var.param (T.copy v_t) in
  let y_ste = Var.ste_mul p_ste eps and y_mul = Var.mul p_mul (Var.const eps) in
  (* Forward: the STE fold is the same multiplication, bit for bit. *)
  Alcotest.(check bool) "forward bit-identical" true
    (tensors_bit_equal (Var.value y_ste) (Var.value y_mul));
  Var.backward (Var.sum y_ste);
  Var.backward (Var.sum y_mul);
  (* Backward: straight-through passes the upstream gradient unchanged
     (here: ones), where the plain fold multiplies by eps. *)
  Alcotest.(check bool) "ste grad = identity" true
    (tensors_bit_equal (Var.grad p_ste) (T.create ~rows:3 ~cols:4 1.));
  Alcotest.(check bool) "mul grad = eps" true (tensors_bit_equal (Var.grad p_mul) eps)

let test_ste_mul_chain_rule () =
  (* Through a nonlinearity the STE gradient is dL/dy evaluated at the
     perturbed point y = v*eps: for L = sum(y^2) that is 2*(v*eps). *)
  let rng = Rng.create ~seed:91 in
  let v_t = T.uniform rng ~rows:2 ~cols:3 ~lo:(-1.) ~hi:1. in
  let eps = T.uniform rng ~rows:2 ~cols:3 ~lo:0.9 ~hi:1.1 in
  let p = Var.param (T.copy v_t) in
  Var.backward (Var.sum (Var.sqr (Var.ste_mul p eps)));
  let expect = T.scale 2. (T.mul v_t eps) in
  Alcotest.(check bool) "grad = 2*(v*eps)" true
    (T.equal_eps ~eps:1e-12 expect (Var.grad p))

(* The correlated operating point used by the NI and invariance tests. *)
let ni_spec = Variation.correlated ~rho:0.6 ~clen:1.5 (Variation.uniform 0.2)

let test_ni_crossbar_fd_oracle () =
  (* Central-difference oracle for the straight-through gradient on one
     crossbar under a fixed correlated draw. The STE gradient is
     dL/dtheta_eff at theta_eff = theta*eps; stepping theta by h/eps_ij
     moves theta_eff by exactly h (the h/eps trick), so the central
     difference converges to the STE gradient — a plain h-step would
     measure eps_ij * dL/dtheta_eff instead. The draw is replayed from
     one saved stream state (Rng.copy), and its eps are read off the
     realization. *)
  let rng = Rng.create ~seed:77 in
  let inputs = 3 and outputs = 4 in
  let cb = Crossbar.create rng ~inputs ~outputs in
  let x = Var.const (T.uniform rng ~rows:5 ~cols:inputs ~lo:(-1.) ~hi:1.) in
  let rng0 = Rng.create ~seed:78 in
  let mk_draw ~ste () = Variation.make_draw ~ste (Rng.copy rng0) ni_spec in
  let theta_eps, bias_eps =
    let r = Crossbar.realize_t ~draw:(mk_draw ~ste:false ()) cb in
    (r.Crossbar.theta_eps, r.Crossbar.bias_eps)
  in
  let loss_var ~ste () = Var.sum (Var.sqr (Crossbar.forward ~draw:(mk_draw ~ste ()) cb x)) in
  (* ni changes gradients only: the loss value itself is bit-identical. *)
  Alcotest.(check bool) "ste forward value unchanged" true
    (T.get_scalar (Var.value (loss_var ~ste:true ()))
    = T.get_scalar (Var.value (loss_var ~ste:false ())));
  let params = Crossbar.params cb in
  List.iter Var.zero_grad params;
  Var.backward (loss_var ~ste:true ());
  let analytic = List.map (fun p -> T.copy (Var.grad p)) params in
  let h = 1e-5 in
  let checked = ref 0 in
  List.iteri
    (fun pi p ->
      let v = Var.value p in
      let g = List.nth analytic pi in
      let eps = if pi = 0 then theta_eps else bias_eps in
      for r = 0 to T.rows v - 1 do
        for c = 0 to T.cols v - 1 do
          let orig = T.get v r c in
          (* Stay clear of the |theta_eff| kink in the normalization. *)
          if Float.abs orig > 0.05 then begin
            incr checked;
            let step = h /. T.get eps r c in
            T.set v r c (orig +. step);
            let f_plus = T.get_scalar (Var.value (loss_var ~ste:true ())) in
            T.set v r c (orig -. step);
            let f_minus = T.get_scalar (Var.value (loss_var ~ste:true ())) in
            T.set v r c orig;
            let fd = (f_plus -. f_minus) /. (2. *. h) in
            let an = T.get g r c in
            let scale = Float.max 1. (Float.max (Float.abs fd) (Float.abs an)) in
            if Float.abs (fd -. an) /. scale > 1e-5 then
              Alcotest.failf "NI grad mismatch param %d (%d,%d): fd=%.10f ste=%.10f" pi r c fd
                an
          end
        done
      done)
    params;
  Alcotest.(check bool) (Printf.sprintf "%d entries checked" !checked) true (!checked >= 8)

let test_ni_times_eps_equals_plain_gradient () =
  (* Semantic identity behind the h/eps trick, pinned directly on the
     analytic side: g_plain = eps . g_ste elementwise under one fixed
     draw. *)
  let rng = Rng.create ~seed:81 in
  let cb = Crossbar.create rng ~inputs:2 ~outputs:3 in
  let x = Var.const (T.uniform rng ~rows:4 ~cols:2 ~lo:(-1.) ~hi:1.) in
  let rng0 = Rng.create ~seed:82 in
  let mk_draw ~ste () = Variation.make_draw ~ste (Rng.copy rng0) ni_spec in
  let theta_eps, bias_eps =
    let r = Crossbar.realize_t ~draw:(mk_draw ~ste:false ()) cb in
    (r.Crossbar.theta_eps, r.Crossbar.bias_eps)
  in
  let grads ~ste =
    let params = Crossbar.params cb in
    List.iter Var.zero_grad params;
    Var.backward (Var.sum (Var.sqr (Crossbar.forward ~draw:(mk_draw ~ste ()) cb x)));
    List.map (fun p -> T.copy (Var.grad p)) params
  in
  let g_ste = grads ~ste:true and g_plain = grads ~ste:false in
  List.iteri
    (fun pi eps ->
      let gs = List.nth g_ste pi and gp = List.nth g_plain pi in
      Alcotest.(check bool)
        (Printf.sprintf "param %d: plain = eps*ste" pi)
        true
        (T.equal_eps ~eps:1e-12 gp (T.mul eps gs)))
    [ theta_eps; bias_eps ]

let test_ni_mc_loss_value_unchanged () =
  (* End-to-end over the MC estimator: ni (and ni+antithetic) leave the
     reported objective bit-identical; they only reroute gradients. *)
  let model =
    Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed:83) Network.Adapt ~inputs:1 ~classes:2)
  in
  let rngx = Rng.create ~seed:84 in
  let x = T.uniform rngx ~rows:6 ~cols:8 ~lo:(-1.) ~hi:1. in
  let labels = Array.init 6 (fun i -> i mod 2) in
  let value ~antithetic ~ni =
    T.get_scalar
      (Var.value
         (Mc_loss.expected ~antithetic ~ni ~rng:(Rng.create ~seed:85) ~spec:ni_spec ~n:4 model
            ~x ~labels))
  in
  Alcotest.(check bool) "ni value bit-identical" true
    (value ~antithetic:false ~ni:true = value ~antithetic:false ~ni:false);
  Alcotest.(check bool) "ni+antithetic value bit-identical" true
    (value ~antithetic:true ~ni:true = value ~antithetic:true ~ni:false)

(* Correlated-draw estimator invariance ----------------------------------- *)

let test_corr_expected_value_pool_invariant () =
  let model =
    Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed:60) Network.Adapt ~inputs:1 ~classes:2)
  in
  let rngx = Rng.create ~seed:61 in
  let x = T.uniform rngx ~rows:7 ~cols:9 ~lo:(-1.) ~hi:1. in
  let labels = Array.init 7 (fun i -> i mod 2) in
  let value ?pool ~antithetic () =
    Mc_loss.expected_value ~antithetic ?pool ~rng:(Rng.create ~seed:62) ~spec:ni_spec ~n:5 model
      ~x ~labels
  in
  let reference = value ~antithetic:false () in
  Pool.with_pool ~size:3 (fun pool ->
      Alcotest.(check bool) "pool 3 bit-identical" true
        (value ~pool ~antithetic:false () = reference);
      Alcotest.(check bool) "antithetic pool = antithetic sequential" true
        (value ~pool ~antithetic:true () = value ~antithetic:true ()))

let test_corr_accuracy_pool_invariant () =
  let model =
    Model.Circuit (Network.create ~hidden:3 (Rng.create ~seed:63) Network.Adapt ~inputs:1 ~classes:2)
  in
  let rngx = Rng.create ~seed:64 in
  let rows = Array.init 8 (fun _ -> Array.init 9 (fun _ -> Rng.uniform rngx ~lo:(-1.) ~hi:1.)) in
  let d =
    { Pnc_data.Dataset.name = "tiny"; x = rows; y = Array.init 8 (fun i -> i mod 2); n_classes = 2 }
  in
  let acc ?pool () =
    Train.accuracy_under_variation ?pool ~rng:(Rng.create ~seed:65) ~spec:ni_spec ~draws:4 model d
  in
  let reference = acc () in
  Pool.with_pool ~size:3 (fun pool ->
      Alcotest.(check bool) "pool 3 bit-identical" true (acc ~pool () = reference))

(* The fused training node -------------------------------------------------

   [Mc_loss.expected] on a circuit is one [Var.fused] node whose sweep is
   written by hand. The oracle is the per-op objective it replaced,
   rebuilt here from [Network.forward_multi], [Loss.softmax_cross_entropy]
   and [Var.add]/[Var.scale], with the same draw construction: the fused
   node must leave bit-identical gradients on every leaf. *)

module Adjoint = Pnc_core.Adjoint
module Batch = Pnc_core.Batch

(* [Mc_loss.expected]'s draws: one pre-split child stream per task, the
   mirrored pairs first under [antithetic]. *)
let mc_tasks ~antithetic ~ni ~rng ~spec ~n =
  let anti = antithetic && n >= 2 in
  Array.mapi
    (fun j r ->
      if anti && j < n / 2 then begin
        let d1, d2 = Variation.antithetic_pair ~ste:ni r spec in
        [| d1; d2 |]
      end
      else [| Variation.make_draw ~ste:ni r spec |])
    (Rng.split_n rng (if anti then (n / 2) + (n mod 2) else n))

let per_op_expected ~readout ~n ~tasks net ~steps ~labels =
  let loss draw =
    Loss.softmax_cross_entropy ~logits:(Network.forward_multi ~readout ~draw net steps) ~labels
  in
  let terms =
    Array.map (function [| d1; d2 |] -> Var.add (loss d1) (loss d2) | ds -> loss ds.(0)) tasks
  in
  let sum = Array.fold_left Var.add terms.(0) (Array.sub terms 1 (Array.length terms - 1)) in
  Var.scale (1. /. float_of_int n) sum

(* [Mc_loss.expected_value]'s sum at the same draws, on the no-grad
   engine. *)
let no_grad_expected ~readout ~n ~tasks net ~steps ~labels =
  let value draw =
    Loss.cross_entropy_value
      ~logits:(Network.forward_multi_batch_t ~opts:{ Batch.default with readout } ~draw net steps)
      ~labels
  in
  let task = function [| d1; d2 |] -> value d1 +. value d2 | ds -> value ds.(0) in
  1. /. float_of_int n *. Array.fold_left ( +. ) 0. (Array.map task tasks)

let grads_of params loss =
  List.iter Var.zero_grad params;
  Var.backward loss;
  List.map (fun p -> T.copy (Var.grad p)) params

(* A random net with [inputs] inputs and a [batch x (time * inputs)]
   input whose step [t] is the column block [t * inputs, (t + 1) *
   inputs) ({!steps_of}). *)
let random_circuit ?(inputs = 1) ~arch rng =
  let hidden = 2 + Rng.int rng 3 and classes = 2 + Rng.int rng 2 in
  let batch = 2 + Rng.int rng 4 and time = 3 + Rng.int rng 6 in
  let net = Network.create ~hidden rng arch ~inputs ~classes in
  let x = T.uniform rng ~rows:batch ~cols:(time * inputs) ~lo:(-1.) ~hi:1. in
  (net, x, random_labels rng ~batch ~classes)

let steps_of net x =
  let inputs = Network.inputs net in
  Array.init (T.cols x / inputs) (fun t ->
      T.init ~rows:(T.rows x) ~cols:inputs (fun r k -> T.get x r ((t * inputs) + k)))

(* The integrated read-out of a univariate net is [Mc_loss.expected]
   itself; the other cells of the matrix build the node with
   [Adjoint.expected] on the same draws. *)
let check_fused_parity ~what ~readout ~antithetic ~ni ~spec ~n ~seed net ~x ~labels =
  let params = Network.params net in
  let steps = steps_of net x in
  let tasks () = mc_tasks ~antithetic ~ni ~rng:(Rng.create ~seed) ~spec ~n in
  let fused =
    if readout = Batch.Integrated && Network.inputs net = 1 then
      Mc_loss.expected ~antithetic ~ni ~rng:(Rng.create ~seed) ~spec ~n (Model.Circuit net) ~x
        ~labels
    else Adjoint.expected ~n ~tasks:(tasks ()) ~readout net ~steps ~labels
  in
  (* Half the matrix builds a second node first, so the sweep finds the
     shared workspace holding another node's draw and must re-run its
     own; the other half sweeps the trajectory its forward left. *)
  if antithetic then
    ignore
      (Adjoint.expected ~n:1
         ~tasks:(mc_tasks ~antithetic:false ~ni:false ~rng:(Rng.create ~seed:(seed + 1)) ~spec ~n:1)
         ~readout net ~steps ~labels);
  let reference = per_op_expected ~readout ~n ~tasks:(tasks ()) net ~steps ~labels in
  let value = T.get_scalar (Var.value fused) in
  let expect = no_grad_expected ~readout ~n ~tasks:(tasks ()) net ~steps ~labels in
  if not (Int64.bits_of_float value = Int64.bits_of_float expect) then
    Alcotest.failf "%s: fused value %.17g <> no-grad objective %.17g" what value expect;
  (* Where the library's no-grad estimator can express the cell, it is
     the value oracle too. *)
  if readout = Batch.Integrated && Network.inputs net = 1 then begin
    let expect =
      Mc_loss.expected_value ~antithetic ~rng:(Rng.create ~seed) ~spec ~n (Model.Circuit net) ~x
        ~labels
    in
    if not (Int64.bits_of_float value = Int64.bits_of_float expect) then
      Alcotest.failf "%s: fused value %.17g <> expected_value %.17g" what value expect
  end;
  let ref_value = T.get_scalar (Var.value reference) in
  if Float.abs (value -. ref_value) > 1e-12 then
    Alcotest.failf "%s: fused value %.17g vs per-op %.17g" what value ref_value;
  let gf = grads_of params fused and gr = grads_of params reference in
  List.iteri
    (fun i (a, b) ->
      if not (tensors_bit_equal a b) then
        Alcotest.failf "%s: param %d gradient differs from the per-op tape (max |diff| %.3g)"
          what i
          (T.max_abs (T.sub a b)))
    (List.combine gf gr)

(* [train.node_forwards] counts the node's forwards: an antithetic pair
   (n = 2) runs two before the sweep and, the workspace holding only the
   last trajectory, one more inside it. *)
let test_node_forward_count () =
  let rng = Rng.create ~seed:417 in
  let net, x, labels = random_circuit ~arch:Network.Adapt rng in
  let forwards () =
    match List.assoc_opt "train.node_forwards" (Pnc_obs.Obs.metrics_snapshot ()) with
    | Some fields -> (
        match List.assoc_opt "value" fields with Some (Pnc_obs.Obs.Int n) -> n | _ -> -1)
    | None -> Alcotest.fail "train.node_forwards is not registered"
  in
  let f0 = forwards () in
  let tasks =
    mc_tasks ~antithetic:true ~ni:false ~rng:(Rng.create ~seed:418) ~spec:(Variation.uniform 0.1) ~n:2
  in
  let node =
    Adjoint.expected ~n:2 ~tasks ~readout:Batch.Integrated net ~steps:(steps_of net x) ~labels
  in
  Alcotest.(check int) "forwards before the sweep" 2 (forwards () - f0);
  Var.backward node;
  Alcotest.(check int) "forwards of a 2-draw step" 3 (forwards () - f0)

(* Correlated variation plus a temperature/aging drift point, so the
   filter's drift multipliers are not 1. *)
let drift_spec =
  Variation.correlated
    ~drift:{ Variation.temp_c = 45.; age_hours = 500. }
    ~rho:0.6 ~clen:1.5 (Variation.gaussian 0.2)

let test_fused_parity_matrix () =
  let specs =
    [
      ("uniform 0.1", Variation.uniform 0.1);
      ("none", Variation.none);
      ("correlated+drift", drift_spec);
    ]
  in
  List.iteri
    (fun k (arch, seed) ->
      List.iter
        (fun inputs ->
          let net, x, labels = random_circuit ~inputs ~arch (Rng.create ~seed) in
          List.iter
            (fun readout ->
              List.iter
                (fun (spec_name, spec) ->
                  List.iter
                    (fun n ->
                      List.iter
                        (fun (antithetic, ni) ->
                          let what =
                            Printf.sprintf "seed=%d %s inputs=%d %s spec=%s n=%d anti=%b ni=%b"
                              seed
                              (Network.arch_name (Network.arch net))
                              inputs
                              (match readout with
                              | Batch.Integrated -> "integrated"
                              | Last_step -> "last-step")
                              spec_name n antithetic ni
                          in
                          check_fused_parity ~what ~readout ~antithetic ~ni ~spec ~n
                            ~seed:(seed + k + n) net ~x ~labels)
                        [ (false, false); (true, false); (false, true); (true, true) ])
                    [ 1; 2; 3 ])
                specs)
            [ Batch.Integrated; Last_step ])
        [ 1; 2 + (seed mod 2) ])
    [ (Network.Ptpnc, 3); (Network.Adapt, 14); (Network.Ptpnc, 159); (Network.Adapt, 2653) ]

(* Central differences against the fused node's gradients, through the
   no-grad objective at the same draws. Plain folds take an h step on
   each leaf. Under noise injection the gradient is dL/d(leaf·ε): one
   draw, and the leaf moves by h/ε so its folded value moves by h. The
   draw's factors come from the sampling-order oracle
   ([Replay.leaf_eps]), in [Network.params] order. *)
let check_fused_fd ~what ~ni ~spec ~n ~seed net ~x ~labels =
  let model = Model.Circuit net in
  let params = Network.params net in
  let analytic =
    grads_of params
      (Mc_loss.expected ~ni ~rng:(Rng.create ~seed) ~spec ~n model ~x ~labels)
  in
  let eps =
    if ni then
      let child = (Rng.split_n (Rng.create ~seed) 1).(0) in
      Replay.leaf_eps net (Variation.make_draw child spec)
    else List.map (fun p -> T.map (fun _ -> 1.) (Var.value p)) params
  in
  let crossbar = List.concat_map (fun (cb, _, _) -> Crossbar.params cb) (Network.layers net) in
  let loss () = Mc_loss.expected_value ~rng:(Rng.create ~seed) ~spec ~n model ~x ~labels in
  let h = 1e-5 and checked = ref 0 in
  List.iteri
    (fun pi (p, (g, e)) ->
      let v = Var.value p in
      for r = 0 to T.rows v - 1 do
        for c = 0 to T.cols v - 1 do
          let orig = T.get v r c in
          (* Crossbar leaves stay clear of the |θ_eff| kink. *)
          if Float.abs orig > 0.05 || not (List.memq p crossbar) then begin
            incr checked;
            let step = h /. T.get e r c in
            T.set v r c (orig +. step);
            let f_plus = loss () in
            T.set v r c (orig -. step);
            let f_minus = loss () in
            T.set v r c orig;
            let fd = (f_plus -. f_minus) /. (2. *. h) and an = T.get g r c in
            let scale = Float.max 1. (Float.max (Float.abs fd) (Float.abs an)) in
            if Float.abs (fd -. an) /. scale > 1e-5 then
              Alcotest.failf "%s: param %d (%d,%d): fd=%.10f fused=%.10f" what pi r c fd an
          end
        done
      done)
    (List.combine params (List.combine analytic eps));
  if !checked < 10 then Alcotest.failf "%s: only %d entries checked" what !checked

let test_fused_fd_oracle () =
  List.iter
    (fun (arch, seed) ->
      let net, x, labels = random_circuit ~arch (Rng.create ~seed) in
      let what = Printf.sprintf "seed=%d %s" seed (Network.arch_name arch) in
      check_fused_fd ~what:(what ^ " plain n=2") ~ni:false ~spec:(Variation.uniform 0.1) ~n:2
        ~seed net ~x ~labels;
      check_fused_fd ~what:(what ^ " plain drift n=2") ~ni:false ~spec:drift_spec ~n:2 ~seed net
        ~x ~labels;
      check_fused_fd ~what:(what ^ " ni drift n=1") ~ni:true ~spec:drift_spec ~n:1 ~seed net ~x
        ~labels)
    [ (Network.Ptpnc, 31); (Network.Adapt, 41); (Network.Adapt, 59) ]

(* One training epoch at the fast scale's GPOVY shape (ADAPT, hidden 4,
   two MC draws over 64 steps) records one tape node and allocates a
   small, fixed amount once the per-domain workspace exists: 43571
   words with OCaml 5.1 on x86_64, the optimizer and the validation
   objective included. The per-op tape recorded 2808 nodes and about
   18.6 Mwords per epoch at this shape. *)
let epoch_words_bound = 50_000.

let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_fused_epoch_tape_and_allocation () =
  let fast = Pnc_exp.Config.of_scale Pnc_exp.Config.Fast in
  let raw = Pnc_data.Registry.load ~n:(Option.get fast.Pnc_exp.Config.dataset_n) ~seed:1 "GPOVY" in
  let split = Pnc_data.Dataset.preprocess (Rng.create ~seed:2) raw in
  let classes = raw.Pnc_data.Dataset.n_classes in
  let model =
    Model.Circuit
      (Network.create ~hidden:(min 8 (max 4 (2 * classes))) (Rng.create ~seed:3) Network.Adapt
         ~inputs:1 ~classes)
  in
  let epoch = Train.epoch ~rng:(Rng.create ~seed:4) fast.Pnc_exp.Config.train_va model split in
  epoch ();
  epoch ();
  let measure () =
    let n0 = Var.tape_recorded () and w0 = words_allocated () in
    epoch ();
    (Var.tape_recorded () - n0, words_allocated () -. w0)
  in
  let runs = List.init 5 (fun _ -> measure ()) in
  List.iter
    (fun (nodes, words) ->
      Alcotest.(check int) "tape nodes per epoch" 1 nodes;
      if words > epoch_words_bound then
        Alcotest.failf "epoch allocated %.0f words (bound %.0f)" words epoch_words_bound)
    runs;
  Alcotest.(check bool) "allocation repeats exactly" true
    (List.for_all (fun (_, w) -> w = snd (List.hd runs)) runs)

let () =
  Alcotest.run "pnc_autodiff"
    [
      ( "engine",
        [
          Alcotest.test_case "op values" `Quick test_values;
          Alcotest.test_case "backward x*x" `Quick test_backward_simple;
          Alcotest.test_case "reuse accumulates" `Quick test_backward_accumulates_reuse;
          Alcotest.test_case "zero_grad" `Quick test_zero_grad;
          Alcotest.test_case "const gets no grad" `Quick test_const_gets_no_grad;
          Alcotest.test_case "requires_grad propagation" `Quick test_requires_grad_propagation;
        ] );
      ( "finite-differences",
        [
          fd_case "elementwise mix" test_fd_elementwise;
          fd_case "matmul" test_fd_matmul;
          fd_case "tanh chain" test_fd_tanh_chain;
          fd_case "abs" test_fd_abs;
          fd_case "broadcast rv ops" test_fd_broadcast;
          fd_case "sub_rv" test_fd_sub_rv;
          fd_case "sum_rows" test_fd_sum_rows;
          fd_case "mean" test_fd_mean;
          fd_case "unrolled recurrence" test_fd_recurrence;
          fd_case "affine_rv (fused)" test_fd_affine_rv;
          Alcotest.test_case "affine_rv value" `Quick test_affine_rv_value;
          Alcotest.test_case "affine_rv = unfused" `Quick test_affine_rv_equals_unfused;
          Alcotest.test_case "deep chain" `Quick test_deep_chain_no_stack_overflow;
        ] );
      ( "tape",
        [
          Alcotest.test_case "no-grad records nothing" `Quick test_no_grad_records_nothing;
          Alcotest.test_case "no-grad restores mode" `Quick test_no_grad_restores_mode;
          Alcotest.test_case "grad_opt" `Quick test_grad_opt_non_allocating;
          Alcotest.test_case "known graph gradients" `Quick test_tape_backward_known_graph;
          Alcotest.test_case "backward twice accumulates" `Quick test_backward_twice_accumulates;
          Alcotest.test_case "cross-graph backward" `Quick test_backward_cross_graph_after_backward;
        ] );
      ( "loss",
        [
          Alcotest.test_case "CE uniform value" `Quick test_ce_value;
          Alcotest.test_case "CE gradient" `Quick test_ce_gradient;
          Alcotest.test_case "CE perfect prediction" `Quick test_ce_perfect_prediction;
          Alcotest.test_case "softmax rows" `Quick test_softmax_rows;
        ] );
      ("properties", [ prop_random_dag ]);
      ( "model gradients",
        [
          prop_network_gradients;
          prop_crossbar_gradients;
          prop_filter_gradients;
          prop_ptanh_gradients;
        ] );
      ( "noise injection",
        [
          Alcotest.test_case "ste_mul forward/backward" `Quick test_ste_mul_forward_and_backward;
          Alcotest.test_case "ste_mul chain rule" `Quick test_ste_mul_chain_rule;
          Alcotest.test_case "crossbar STE FD oracle" `Quick test_ni_crossbar_fd_oracle;
          Alcotest.test_case "plain grad = eps*ste grad" `Quick
            test_ni_times_eps_equals_plain_gradient;
          Alcotest.test_case "MC loss value unchanged" `Quick test_ni_mc_loss_value_unchanged;
        ] );
      ( "fused training node",
        [
          Alcotest.test_case "bit parity with the per-op tape" `Quick test_fused_parity_matrix;
          Alcotest.test_case "central differences (h/eps under ni)" `Quick test_fused_fd_oracle;
          Alcotest.test_case "one node, bounded allocation per epoch" `Quick
            test_fused_epoch_tape_and_allocation;
          Alcotest.test_case "forward count of a 2-draw step" `Quick test_node_forward_count;
        ] );
      ( "correlated invariance",
        [
          Alcotest.test_case "expected_value pool" `Quick test_corr_expected_value_pool_invariant;
          Alcotest.test_case "accuracy pool" `Quick test_corr_accuracy_pool_invariant;
        ] );
    ]

(* Unit and property tests for the dense tensor substrate. *)

module T = Pnc_tensor.Tensor
module Rng = Pnc_util.Rng

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let check_f ?eps name expected got =
  Alcotest.(check bool) (Printf.sprintf "%s (exp %.6g, got %.6g)" name expected got) true
    (approx ?eps expected got)

let t22 a b c d = T.of_rows [| [| a; b |]; [| c; d |] |]

let test_create_get_set () =
  let t = T.create ~rows:2 ~cols:3 1.5 in
  Alcotest.(check int) "rows" 2 (T.rows t);
  Alcotest.(check int) "cols" 3 (T.cols t);
  check_f "init value" 1.5 (T.get t 1 2);
  T.set t 1 2 7.;
  check_f "after set" 7. (T.get t 1 2);
  check_f "other untouched" 1.5 (T.get t 0 0)

let test_of_rows_row_major () =
  let t = t22 1. 2. 3. 4. in
  check_f "0,0" 1. (T.get t 0 0);
  check_f "0,1" 2. (T.get t 0 1);
  check_f "1,0" 3. (T.get t 1 0);
  Alcotest.(check (array (float 1e-12))) "row copy" [| 3.; 4. |] (T.row t 1)

let test_elementwise () =
  let a = t22 1. 2. 3. 4. and b = t22 5. 6. 7. 8. in
  Alcotest.(check bool) "add" true (T.equal_eps ~eps:1e-12 (t22 6. 8. 10. 12.) (T.add a b));
  Alcotest.(check bool) "sub" true (T.equal_eps ~eps:1e-12 (t22 (-4.) (-4.) (-4.) (-4.)) (T.sub a b));
  Alcotest.(check bool) "mul" true (T.equal_eps ~eps:1e-12 (t22 5. 12. 21. 32.) (T.mul a b));
  Alcotest.(check bool) "scale" true (T.equal_eps ~eps:1e-12 (t22 2. 4. 6. 8.) (T.scale 2. a));
  Alcotest.(check bool) "neg" true (T.equal_eps ~eps:1e-12 (t22 (-1.) (-2.) (-3.) (-4.)) (T.neg a))

let test_matmul () =
  let a = t22 1. 2. 3. 4. and b = t22 5. 6. 7. 8. in
  let c = T.matmul a b in
  Alcotest.(check bool) "2x2 matmul" true (T.equal_eps ~eps:1e-12 (t22 19. 22. 43. 50.) c);
  (* Non-square: (1x3) @ (3x2) *)
  let x = T.of_row [| 1.; 2.; 3. |] in
  let w = T.of_rows [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let y = T.matmul x w in
  check_f "y0" 4. (T.get y 0 0);
  check_f "y1" 5. (T.get y 0 1)

let test_matmul_identity () =
  let rng = Rng.create ~seed:1 in
  let a = T.uniform rng ~rows:4 ~cols:4 ~lo:(-1.) ~hi:1. in
  let id = T.init ~rows:4 ~cols:4 (fun r c -> if r = c then 1. else 0.) in
  Alcotest.(check bool) "a @ I = a" true (T.equal_eps ~eps:1e-12 a (T.matmul a id));
  Alcotest.(check bool) "I @ a = a" true (T.equal_eps ~eps:1e-12 a (T.matmul id a))

let test_transpose () =
  let a = T.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let at = T.transpose a in
  Alcotest.(check int) "rows" 3 (T.rows at);
  check_f "element" 6. (T.get at 2 1);
  Alcotest.(check bool) "double transpose" true (T.equal_eps ~eps:0. a (T.transpose at))

let test_broadcast () =
  let m = t22 1. 2. 3. 4. in
  let rv = T.of_row [| 10.; 20. |] in
  Alcotest.(check bool) "add_rv" true (T.equal_eps ~eps:1e-12 (t22 11. 22. 13. 24.) (T.add_rv m rv));
  Alcotest.(check bool) "mul_rv" true (T.equal_eps ~eps:1e-12 (t22 10. 40. 30. 80.) (T.mul_rv m rv))

let test_reductions () =
  let m = t22 1. 2. 3. 4. in
  check_f "sum" 10. (T.sum m);
  check_f "mean" 2.5 (T.mean m);
  Alcotest.(check bool) "sum_rows" true
    (T.equal_eps ~eps:1e-12 (T.of_row [| 4.; 6. |]) (T.sum_rows m));
  let sc = T.sum_cols m in
  check_f "sum_cols 0" 3. (T.get sc 0 0);
  check_f "sum_cols 1" 7. (T.get sc 1 0);
  check_f "max_abs" 4. (T.max_abs m)

let test_one_hot_argmax () =
  let oh = T.one_hot ~n_classes:3 [| 0; 2; 1 |] in
  Alcotest.(check (array int)) "argmax recovers labels" [| 0; 2; 1 |] (T.argmax_rows oh);
  check_f "row sums to 1" 3. (T.sum oh)

let test_col () =
  let m = T.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let c = T.col m 1 in
  Alcotest.(check int) "rows" 2 (T.rows c);
  Alcotest.(check int) "cols" 1 (T.cols c);
  check_f "values" 5. (T.get c 1 0)

let test_add_inplace () =
  let a = t22 1. 1. 1. 1. in
  T.add_inplace a (t22 1. 2. 3. 4.);
  Alcotest.(check bool) "accumulated" true (T.equal_eps ~eps:0. (t22 2. 3. 4. 5.) a)

let expect_assert name f =
  match f () with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail ("expected assertion failure: " ^ name)

let test_shape_violations_assert () =
  expect_assert "of_array length" (fun () -> T.of_array ~rows:2 ~cols:2 [| 1.; 2.; 3. |]);
  expect_assert "matmul shapes" (fun () ->
      T.matmul (T.zeros ~rows:2 ~cols:3) (T.zeros ~rows:2 ~cols:2));
  expect_assert "map2 shapes" (fun () ->
      T.map2 ( +. ) (T.zeros ~rows:1 ~cols:2) (T.zeros ~rows:2 ~cols:1));
  expect_assert "add_inplace shapes" (fun () ->
      T.add_inplace (T.zeros ~rows:1 ~cols:2) (T.zeros ~rows:2 ~cols:2));
  expect_assert "one_hot label range" (fun () -> T.one_hot ~n_classes:2 [| 0; 2 |]);
  expect_assert "get_scalar non-scalar" (fun () -> T.get_scalar (T.zeros ~rows:2 ~cols:1))

let test_init_row_major_order () =
  (* init must visit row-major so closures with side effects behave
     predictably (the tensor fast path depends on it). *)
  let calls = ref [] in
  let _ =
    T.init ~rows:2 ~cols:2 (fun r c ->
        calls := (r, c) :: !calls;
        0.)
  in
  Alcotest.(check (list (pair int int))) "row-major order" [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    (List.rev !calls)

let test_scalar_and_of_row () =
  let s = T.scalar 3.5 in
  check_f "scalar value" 3.5 (T.get_scalar s);
  let input = [| 1.; 2. |] in
  let r = T.of_row input in
  input.(0) <- 99.;
  check_f "of_row copies" 1. (T.get r 0 0)

let test_of_array_copies () =
  (* Regression: of_array used to alias the caller's buffer. *)
  let input = [| 1.; 2.; 3.; 4. |] in
  let t = T.of_array ~rows:2 ~cols:2 input in
  input.(0) <- 99.;
  check_f "of_array copies" 1. (T.get t 0 0);
  T.set t 1 1 (-7.);
  check_f "writes stay inside the tensor" 4. input.(3)

let test_inplace_kernels_match_allocating () =
  let m = T.of_rows [| [| 1.; -2.; 3. |]; [| 0.5; 4.; -1. |] |] in
  let rv = T.of_row [| 2.; -0.5; 3. |] in
  let a = T.copy m in
  T.add_rv_inplace a rv;
  Alcotest.(check bool) "add_rv_inplace" true (T.equal_eps ~eps:0. (T.add_rv m rv) a);
  let b = T.copy m in
  T.mul_rv_inplace b rv;
  Alcotest.(check bool) "mul_rv_inplace" true (T.equal_eps ~eps:0. (T.mul_rv m rv) b)

let test_matmul_into_matches_matmul () =
  let a = T.of_rows [| [| 1.; 0.; -2. |]; [| 3.; 4.; 0. |] |] in
  let b = T.of_rows [| [| 1.; 2. |]; [| -1.; 0.5 |]; [| 0.; 3. |] |] in
  let dst = T.create ~rows:2 ~cols:2 42. in
  T.matmul_into ~dst a b;
  Alcotest.(check bool) "matmul_into overwrites" true (T.equal_eps ~eps:0. (T.matmul a b) dst)

let test_affine_rv_into () =
  let s = T.of_rows [| [| 1.; 2. |]; [| -3.; 0.5 |] |] in
  let x = T.of_rows [| [| 0.5; -1. |]; [| 2.; 4. |] |] in
  let a = T.of_row [| 0.9; 0.8 |] and b = T.of_row [| 0.1; 0.2 |] in
  let expected = T.add (T.mul_rv s a) (T.mul_rv x b) in
  let dst = T.zeros ~rows:2 ~cols:2 in
  T.affine_rv_into ~dst s a x b;
  Alcotest.(check bool) "into fresh dst" true (T.equal_eps ~eps:0. expected dst);
  (* dst aliasing s is the filter-state in-place update *)
  let s' = T.copy s in
  T.affine_rv_into ~dst:s' s' a x b;
  Alcotest.(check bool) "dst may alias s" true (T.equal_eps ~eps:0. expected s')

let test_add_mul_rv_inplace () =
  let m = T.of_rows [| [| 1.; -2.; 3. |]; [| 0.5; 4.; -1. |] |] in
  let add = T.of_row [| 0.25; -1.5; 2. |] in
  let mul = T.of_row [| 2.; -0.5; 3. |] in
  let expected = T.copy m in
  T.add_rv_inplace expected add;
  T.mul_rv_inplace expected mul;
  let fused = T.copy m in
  T.add_mul_rv_inplace fused ~add ~mul;
  Alcotest.(check bool) "fused = add;mul" true (T.equal_eps ~eps:0. expected fused)

let test_matmul_into_rejects_aliasing () =
  (* Regression: matmul_into reads its operands while writing dst, so a
     dst that shares the operand buffer (even through a row view) must
     be rejected instead of silently corrupting the product. *)
  let a = T.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = T.of_rows [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dst == a" true (raises (fun () -> T.matmul_into ~dst:a a b));
  Alcotest.(check bool) "dst == b" true (raises (fun () -> T.matmul_into ~dst:b a b));
  Alcotest.(check bool) "dst shares a's buffer via a view" true
    (raises (fun () -> T.matmul_into ~dst:(T.rows_view a ~row:0 ~len:2) a b))

let test_rows_view_semantics () =
  let m = T.of_rows [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let v = T.rows_view m ~row:1 ~len:2 in
  Alcotest.(check bool) "view contents" true
    (T.equal_eps ~eps:0. (T.of_rows [| [| 3.; 4. |]; [| 5.; 6. |] |]) v);
  (* The view shares the parent's buffer in both directions. *)
  T.set v 0 0 30.;
  Alcotest.(check (float 0.)) "write-through to parent" 30. (T.get m 1 0);
  T.set m 2 1 60.;
  Alcotest.(check (float 0.)) "parent write visible in view" 60. (T.get v 1 1);
  let oob f = match f () with _ -> false | exception _ -> true in
  Alcotest.(check bool) "len past end rejected" true
    (oob (fun () -> T.rows_view m ~row:2 ~len:2));
  Alcotest.(check bool) "negative row rejected" true
    (oob (fun () -> T.rows_view m ~row:(-1) ~len:1))

(* Differential oracle --------------------------------------------------- *)

(* The pre-Bigarray [float array] kernels, retained verbatim as an
   oracle: naive row-major loops, matmul zero-fill then k-ascending
   accumulation. The Bigarray kernels — including the 32x32 blocked
   matmul, its kk=1 fast path, and the unsafe flat-offset addressing
   used under views — must match them at eps 0: blocking and storage
   change locality, never the floating-point result. *)
module Oracle = struct
  type m = { rows : int; cols : int; d : float array }

  let of_tensor t = { rows = T.rows t; cols = T.cols t; d = T.to_row_array t }
  let to_tensor m = T.of_array ~rows:m.rows ~cols:m.cols m.d
  let get m r c = m.d.((r * m.cols) + c)

  let matmul a b =
    assert (a.cols = b.rows);
    let out = Array.make (a.rows * b.cols) 0. in
    for r = 0 to a.rows - 1 do
      for k = 0 to a.cols - 1 do
        let av = get a r k in
        for c = 0 to b.cols - 1 do
          out.((r * b.cols) + c) <- out.((r * b.cols) + c) +. (av *. get b k c)
        done
      done
    done;
    { rows = a.rows; cols = b.cols; d = out }

  let broadcast f m rv =
    assert (rv.rows = 1 && rv.cols = m.cols);
    {
      m with
      d = Array.init (m.rows * m.cols) (fun i -> f m.d.(i) rv.d.(i mod m.cols));
    }

  let add_rv m rv = broadcast ( +. ) m rv
  let mul_rv m rv = broadcast ( *. ) m rv

  let add_mul_rv m ~add ~mul =
    broadcast ( *. ) (broadcast ( +. ) m add) mul

  let affine_rv s a x b =
    assert (s.rows = x.rows && s.cols = x.cols);
    assert (a.rows = 1 && a.cols = s.cols && b.rows = 1 && b.cols = s.cols);
    {
      s with
      d =
        Array.init (s.rows * s.cols) (fun i ->
            (s.d.(i) *. a.d.(i mod s.cols)) +. (x.d.(i) *. b.d.(i mod s.cols)));
    }
end

(* Element values: mostly moderate uniforms, salted with exact and
   extreme doubles (signed zeros, huge/tiny magnitudes) that would
   expose any kernel taking a different rounding path than the oracle. *)
let gen_val =
  Qgen.bind (Qgen.int_range 0 7) (fun k ->
      if k = 0 then
        Qgen.oneof [ 0.; -0.; 1.; -1.; 0.5; 1e-160; -1e-160; 1e150; -1e150 ]
      else Qgen.float_range (-3.) 3.)

(* Dimensions straddle the 32x32 blocking tiles: below, at, and past
   the boundary, including ragged sizes that leave partial tiles. *)
let gen_dim = Qgen.oneof [ 1; 2; 3; 5; 7; 16; 31; 32; 33; 37; 41; 45; 64; 65 ]

let gen_mat rows cols =
  Qgen.map (fun d -> T.of_array ~rows ~cols d)
    (Qgen.array_of ~len:(Qgen.return (rows * cols)) gen_val)

(* A tensor with off <> 0: embed the payload mid-buffer in a larger
   parent (padding rows filled with a sentinel) and view it out. *)
let gen_viewed rows cols =
  Qgen.map
    (fun d ->
      let parent = T.create ~rows:(rows + 2) ~cols 42.25 in
      Array.iteri (fun i v -> T.set parent (1 + (i / cols)) (i mod cols) v) d;
      T.rows_view parent ~row:1 ~len:rows)
    (Qgen.array_of ~len:(Qgen.return (rows * cols)) gen_val)

let pp_t t = Format.asprintf "%a" T.pp t
let pp_pair (a, b) = Printf.sprintf "(%s, %s)" (pp_t a) (pp_t b)

let test_diff_matmul () =
  let gen =
    Qgen.bind (Qgen.triple gen_dim gen_dim gen_dim) (fun (m, k, n) ->
        Qgen.pair (gen_mat m k) (gen_mat k n))
  in
  Qgen.check ~count:60 ~pp:pp_pair ~name:"matmul = oracle" gen (fun (a, b) ->
      let expect = Oracle.(to_tensor (matmul (of_tensor a) (of_tensor b))) in
      (* Allocating entry point, and matmul_into over a dirty dst (the
         zero-fill must erase previous contents, not accumulate). *)
      T.equal_eps ~eps:0. expect (T.matmul a b)
      &&
      let dst = T.create ~rows:(T.rows a) ~cols:(T.cols b) nan in
      T.matmul_into ~dst a b;
      T.equal_eps ~eps:0. expect dst)

let test_diff_matmul_viewed () =
  (* Same parity with every operand and the destination at off <> 0:
     the flat-offset addressing of the blocked kernel under views. *)
  let gen =
    Qgen.bind (Qgen.triple gen_dim gen_dim gen_dim) (fun (m, k, n) ->
        Qgen.pair (gen_viewed m k) (gen_viewed k n))
  in
  Qgen.check ~count:40 ~pp:pp_pair ~name:"matmul (views) = oracle" gen (fun (a, b) ->
      let expect = Oracle.(to_tensor (matmul (of_tensor a) (of_tensor b))) in
      let parent = T.create ~rows:(T.rows a + 2) ~cols:(T.cols b) nan in
      let dst = T.rows_view parent ~row:1 ~len:(T.rows a) in
      T.matmul_into ~dst a b;
      T.equal_eps ~eps:0. expect dst
      (* The kernel must write inside the view only. *)
      && T.get parent 0 0 <> T.get parent 0 0
      && T.get parent (T.rows parent - 1) 0 <> T.get parent (T.rows parent - 1) 0)

let test_diff_kk1_fast_path () =
  (* The [batch x 1] @ [1 x n] fast path (first layer of every circuit)
     skips the fill pass; it must still be bit-equal to the oracle's
     fill-then-accumulate — including rows where the single [a] element
     is an exact (possibly negative) zero. *)
  let gen =
    Qgen.bind (Qgen.pair gen_dim gen_dim) (fun (m, n) ->
        Qgen.pair (gen_mat m 1) (gen_mat 1 n))
  in
  Qgen.check ~count:60 ~pp:pp_pair ~name:"kk=1 matmul = oracle" gen (fun (a, b) ->
      let expect = Oracle.(to_tensor (matmul (of_tensor a) (of_tensor b))) in
      let got = T.matmul a b in
      T.equal_eps ~eps:0. expect got
      &&
      (* eps-0 comparison cannot distinguish -0. from +0.; pin the fill
         semantics bit-for-bit. *)
      let ok = ref true in
      for r = 0 to T.rows got - 1 do
        for c = 0 to T.cols got - 1 do
          if
            Int64.bits_of_float (T.get got r c)
            <> Int64.bits_of_float (Oracle.get (Oracle.of_tensor expect) r c)
          then ok := false
        done
      done;
      !ok)

let test_diff_broadcast_kernels () =
  let gen =
    Qgen.bind (Qgen.pair gen_dim gen_dim) (fun (m, n) ->
        Qgen.triple (gen_viewed m n) (gen_mat 1 n) (gen_mat 1 n))
  in
  Qgen.check ~count:60
    ~pp:(fun (m, a, b) ->
      Printf.sprintf "(%s, %s, %s)" (pp_t m) (pp_t a) (pp_t b))
    ~name:"broadcast kernels = oracle" gen
    (fun (m, rva, rvb) ->
      let om = Oracle.of_tensor m in
      let oa = Oracle.of_tensor rva and ob = Oracle.of_tensor rvb in
      let check_inplace expect kernel =
        let w = T.copy m in
        kernel w;
        T.equal_eps ~eps:0. (Oracle.to_tensor expect) w
      in
      T.equal_eps ~eps:0. (Oracle.to_tensor (Oracle.add_rv om oa)) (T.add_rv m rva)
      && T.equal_eps ~eps:0. (Oracle.to_tensor (Oracle.mul_rv om oa)) (T.mul_rv m rva)
      && check_inplace (Oracle.add_rv om oa) (fun w -> T.add_rv_inplace w rva)
      && check_inplace (Oracle.mul_rv om oa) (fun w -> T.mul_rv_inplace w rva)
      && check_inplace
           (Oracle.add_mul_rv om ~add:oa ~mul:ob)
           (fun w -> T.add_mul_rv_inplace w ~add:rva ~mul:rvb))

let test_diff_affine_rv_into () =
  let gen =
    Qgen.bind (Qgen.pair gen_dim gen_dim) (fun (m, n) ->
        Qgen.pair
          (Qgen.pair (gen_viewed m n) (gen_viewed m n))
          (Qgen.pair (gen_mat 1 n) (gen_mat 1 n)))
  in
  Qgen.check ~count:60
    ~pp:(fun ((s, x), (a, b)) ->
      Printf.sprintf "(%s, %s, %s, %s)" (pp_t s) (pp_t x) (pp_t a) (pp_t b))
    ~name:"affine_rv_into = oracle" gen
    (fun ((s, x), (a, b)) ->
      let expect =
        Oracle.(
          to_tensor
            (affine_rv (of_tensor s) (of_tensor a) (of_tensor x) (of_tensor b)))
      in
      let dst = T.zeros ~rows:(T.rows s) ~cols:(T.cols s) in
      T.affine_rv_into ~dst s a x b;
      T.equal_eps ~eps:0. expect dst
      &&
      (* In-place form: dst aliasing s (the filter state update). *)
      let s' = T.copy s in
      T.affine_rv_into ~dst:s' s' a x b;
      T.equal_eps ~eps:0. expect s')

let test_diff_view_ops () =
  (* Every allocating op reading through off <> 0 must agree with the
     same op on the materialized (off = 0) copy. *)
  let gen = Qgen.bind (Qgen.pair gen_dim gen_dim) (fun (m, n) -> gen_viewed m n) in
  Qgen.check ~count:60 ~pp:pp_t ~name:"ops on views = ops on copies" gen (fun v ->
      let c = T.copy v in
      T.equal_eps ~eps:0. (T.map (fun x -> (2. *. x) -. 1.) c)
        (T.map (fun x -> (2. *. x) -. 1.) v)
      && T.equal_eps ~eps:0. (T.transpose c) (T.transpose v)
      && T.equal_eps ~eps:0. (T.sum_rows c) (T.sum_rows v)
      && T.equal_eps ~eps:0. (T.sum_cols c) (T.sum_cols v)
      && Int64.bits_of_float (T.sum c) = Int64.bits_of_float (T.sum v)
      && T.max_abs c = T.max_abs v
      && T.to_row_array c = T.to_row_array v)

let test_diff_transpose () =
  (* [transpose] is a direct gather over the buffer; it must reproduce
     the former [init]-through-[get] definition bit for bit (signed
     zeros included), on owned tensors and on views with off <> 0, down
     to single-row and single-column shapes. *)
  let reference t = T.init ~rows:(T.cols t) ~cols:(T.rows t) (fun r c -> T.get t c r) in
  let same_bits a b =
    T.same_shape a b
    && List.for_all
         (fun i ->
           let r = i / T.cols a and c = i mod T.cols a in
           Int64.bits_of_float (T.get a r c) = Int64.bits_of_float (T.get b r c))
         (List.init (T.numel a) Fun.id)
  in
  let gen =
    Qgen.bind (Qgen.triple gen_dim gen_dim Qgen.bool) (fun (m, n, viewed) ->
        if viewed then gen_viewed m n else gen_mat m n)
  in
  Qgen.check ~count:80 ~pp:pp_t ~name:"transpose = init-based transpose" gen (fun t ->
      same_bits (reference t) (T.transpose t));
  List.iter
    (fun (rows, cols) ->
      let parent = T.of_array ~rows:(rows + 3) ~cols (Array.init ((rows + 3) * cols) float_of_int) in
      let v = T.rows_view parent ~row:2 ~len:rows in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d view at row 2" rows cols)
        true
        (same_bits (reference v) (T.transpose v)))
    [ (1, 1); (1, 7); (7, 1); (3, 4) ]

let test_diff_rows_view_bounds () =
  (* Fuzzed bounds: every (row, len) pair either yields a view whose
     contents match the oracle slice, or raises Invalid_argument —
     exactly when the range leaves the parent. *)
  let gen =
    Qgen.bind (Qgen.pair gen_dim gen_dim) (fun (m, n) ->
        Qgen.pair (gen_mat m n)
          (Qgen.pair (Qgen.int_range (-2) (m + 2)) (Qgen.int_range (-2) (m + 2))))
  in
  Qgen.check ~count:100
    ~pp:(fun (t, (row, len)) ->
      Printf.sprintf "(%s, row=%d, len=%d)" (pp_t t) row len)
    ~name:"rows_view bounds" gen
    (fun (t, (row, len)) ->
      let legal = row >= 0 && len >= 0 && row + len <= T.rows t in
      match T.rows_view t ~row ~len with
      | exception Invalid_argument _ -> not legal
      | v ->
          legal
          && T.rows v = len
          && T.to_row_array v
             = Array.init (len * T.cols t) (fun i ->
                   T.get t (row + (i / T.cols t)) (i mod T.cols t)))

let test_diff_blit_overlap () =
  (* blit_into between overlapping row ranges of one buffer, both
     directions; the oracle snapshots the source before any write. *)
  let gen =
    Qgen.bind (Qgen.pair (Qgen.oneof [ 3; 5; 8; 33; 40 ]) gen_dim) (fun (m, n) ->
        Qgen.pair (gen_mat m n) Qgen.bool)
  in
  Qgen.check ~count:60
    ~pp:(fun (t, fwd) -> Printf.sprintf "(%s, fwd=%b)" (pp_t t) fwd)
    ~name:"blit_into overlap" gen
    (fun (t, fwd) ->
      let m = T.rows t and n = T.cols t in
      let len = m - 1 in
      let src_row = if fwd then 0 else 1 in
      let dst_row = if fwd then 1 else 0 in
      let snapshot = T.to_row_array (T.rows_view t ~row:src_row ~len) in
      T.blit_into ~dst:(T.rows_view t ~row:dst_row ~len) (T.rows_view t ~row:src_row ~len);
      T.to_row_array (T.rows_view t ~row:dst_row ~len) = snapshot
      &&
      (* The row outside the destination range is untouched. *)
      let outside = if fwd then 0 else m - 1 in
      let src_outside = if fwd then 0 else len - 1 in
      T.row t outside
      = Array.init n (fun c -> snapshot.((src_outside * n) + c)))

let test_diff_alias_guard_fuzzed () =
  (* The aliasing guard must fire for any dst sharing an operand
     buffer, whatever the view offset. *)
  let gen =
    Qgen.bind gen_dim (fun n ->
        Qgen.pair (gen_mat (n + 1) n) (Qgen.pair (gen_mat n n) (Qgen.int_range 0 1)))
  in
  Qgen.check ~count:40
    ~pp:(fun (a, (b, w)) -> Printf.sprintf "(%s, %s, which=%d)" (pp_t a) (pp_t b) w)
    ~name:"alias guard" gen
    (fun (a, (b, which)) ->
      let a_view = T.rows_view a ~row:1 ~len:(T.rows a - 1) in
      let dst = if which = 0 then a_view else b in
      match T.matmul_into ~dst a_view b with
      | exception Invalid_argument _ -> true
      | () -> false)

let test_signed_zero_semantics () =
  (* fill / create preserve the sign bit of a negative-zero fill value,
     and the matmul zero-fill (skipped accumulation for an all-zero
     row) produces +0 exactly like the oracle's 0 + 0*b. *)
  let bits = Int64.bits_of_float in
  let t = T.create ~rows:2 ~cols:3 (-0.0) in
  for r = 0 to 1 do
    for c = 0 to 2 do
      Alcotest.(check int64)
        (Printf.sprintf "create -0. at (%d,%d)" r c)
        (bits (-0.0)) (bits (T.get t r c))
    done
  done;
  T.fill t 0.0;
  Alcotest.(check int64) "fill +0. overwrites" (bits 0.0) (bits (T.get t 1 2));
  (* An all-zero row of [a]: both the blocked path (kk > 1, every av
     skipped) and the kk=1 fast path (fill branch) leave +0. *)
  let a = T.of_rows [| [| 0.; -0. |]; [| 1.; 2. |] |] in
  let b = T.of_rows [| [| -1.; 3. |]; [| 2.; -5. |] |] in
  let p = T.matmul a b in
  Alcotest.(check int64) "zero row gives +0" (bits 0.0) (bits (T.get p 0 0));
  Alcotest.(check int64) "zero row gives +0 (col 1)" (bits 0.0) (bits (T.get p 0 1));
  let a1 = T.of_array ~rows:2 ~cols:1 [| -0.; 3. |] in
  let b1 = T.of_row [| -2.; 7. |] in
  let p1 = T.matmul a1 b1 in
  Alcotest.(check int64) "kk=1 zero row gives +0" (bits 0.0) (bits (T.get p1 0 0));
  Alcotest.(check int64) "kk=1 zero row gives +0 (col 1)" (bits 0.0) (bits (T.get p1 0 1))

(* Properties ------------------------------------------------------------ *)

let tensor_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun rows ->
    int_range 1 6 >>= fun cols ->
    list_repeat (rows * cols) (float_range (-10.) 10.) >|= fun l ->
    T.of_array ~rows ~cols (Array.of_list l))

let tensor_arb = QCheck.make ~print:(fun t -> Format.asprintf "%a" T.pp t) tensor_gen

let prop_transpose_involution =
  QCheck.Test.make ~count:200 ~name:"transpose involution" tensor_arb (fun t ->
      T.equal_eps ~eps:0. t (T.transpose (T.transpose t)))

let prop_sum_linear =
  QCheck.Test.make ~count:200 ~name:"sum (a+a) = 2 sum a" tensor_arb (fun t ->
      approx ~eps:1e-6 (T.sum (T.add t t)) (2. *. T.sum t))

let prop_matmul_transpose =
  QCheck.Test.make ~count:100 ~name:"(A B)^T = B^T A^T"
    (QCheck.make
       QCheck.Gen.(
         int_range 1 5 >>= fun m ->
         int_range 1 5 >>= fun k ->
         int_range 1 5 >>= fun n ->
         list_repeat (m * k) (float_range (-3.) 3.) >>= fun la ->
         list_repeat (k * n) (float_range (-3.) 3.) >|= fun lb ->
         ( T.of_array ~rows:m ~cols:k (Array.of_list la),
           T.of_array ~rows:k ~cols:n (Array.of_list lb) )))
    (fun (a, b) ->
      T.equal_eps ~eps:1e-9
        (T.transpose (T.matmul a b))
        (T.matmul (T.transpose b) (T.transpose a)))

let prop_sum_rows_consistent =
  QCheck.Test.make ~count:200 ~name:"sum of sum_rows = sum" tensor_arb (fun t ->
      approx ~eps:1e-6 (T.sum (T.sum_rows t)) (T.sum t))

(* The element-wise ops are direct loops. Each must equal its [map] or
   [map2] definition bit for bit, on views too, and allocate the same
   few words whatever the size: through a closure, every element it
   returned would be boxed. [argmax_rows] reads its rows in place. *)
let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let binary_ops =
  [ ("add", T.add, ( +. )); ("sub", T.sub, ( -. )); ("mul", T.mul, ( *. )); ("div", T.div, ( /. )) ]

let unary_ops =
  [
    ("neg", T.neg, fun x -> -.x);
    ("scale", T.scale 1.7, fun x -> 1.7 *. x);
    ("add_scalar", T.add_scalar (-0.3), fun x -> -0.3 +. x);
  ]

let same_bits a b =
  T.same_shape a b
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       (T.to_row_array a) (T.to_row_array b)

let test_elementwise_loops () =
  let rng = Rng.create ~seed:17 in
  let view () = T.rows_view (T.uniform rng ~rows:5 ~cols:7 ~lo:(-2.) ~hi:2.) ~row:1 ~len:3 in
  let a = view () and b = view () in
  List.iter
    (fun (name, op, f) ->
      Alcotest.(check bool) (name ^ " = map2") true (same_bits (op a b) (T.map2 f a b)))
    binary_ops;
  List.iter
    (fun (name, op, f) ->
      Alcotest.(check bool) (name ^ " = map") true (same_bits (op a) (T.map f a)))
    unary_ops;
  let words n op =
    let u = T.uniform rng ~rows:1 ~cols:n ~lo:1. ~hi:2.
    and v = T.uniform rng ~rows:1 ~cols:n ~lo:1. ~hi:2. in
    ignore (op u v);
    let w0 = words_allocated () in
    ignore (op u v);
    words_allocated () -. w0
  in
  let flat name op =
    let small = words 10 op and large = words 1000 op in
    if large <> small || large > 64. then
      Alcotest.failf "%s allocates %.0f words at 10 elements, %.0f at 1000" name small large
  in
  List.iter (fun (name, op, _) -> flat name op) binary_ops;
  List.iter (fun (name, op, _) -> flat name (fun u _ -> op u)) unary_ops;
  flat "argmax_rows" (fun u _ -> T.argmax_rows u)

let () =
  let qc =
    List.map QCheck_alcotest.to_alcotest
      [ prop_transpose_involution; prop_sum_linear; prop_matmul_transpose; prop_sum_rows_consistent ]
  in
  Alcotest.run "pnc_tensor"
    [
      ( "tensor",
        [
          Alcotest.test_case "create/get/set" `Quick test_create_get_set;
          Alcotest.test_case "of_rows layout" `Quick test_of_rows_row_major;
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "one_hot/argmax" `Quick test_one_hot_argmax;
          Alcotest.test_case "col" `Quick test_col;
          Alcotest.test_case "add_inplace" `Quick test_add_inplace;
          Alcotest.test_case "shape violations assert" `Quick test_shape_violations_assert;
          Alcotest.test_case "init row-major" `Quick test_init_row_major_order;
          Alcotest.test_case "scalar / of_row copy" `Quick test_scalar_and_of_row;
          Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
          Alcotest.test_case "in-place rv kernels" `Quick test_inplace_kernels_match_allocating;
          Alcotest.test_case "matmul_into" `Quick test_matmul_into_matches_matmul;
          Alcotest.test_case "affine_rv_into" `Quick test_affine_rv_into;
          Alcotest.test_case "add_mul_rv_inplace" `Quick test_add_mul_rv_inplace;
          Alcotest.test_case "matmul_into rejects aliasing" `Quick
            test_matmul_into_rejects_aliasing;
          Alcotest.test_case "rows_view semantics" `Quick test_rows_view_semantics;
          Alcotest.test_case "element-wise loops" `Quick test_elementwise_loops;
        ] );
      ( "differential",
        [
          Alcotest.test_case "matmul = oracle" `Quick test_diff_matmul;
          Alcotest.test_case "matmul (views) = oracle" `Quick test_diff_matmul_viewed;
          Alcotest.test_case "kk=1 fast path = oracle" `Quick test_diff_kk1_fast_path;
          Alcotest.test_case "broadcast kernels = oracle" `Quick
            test_diff_broadcast_kernels;
          Alcotest.test_case "affine_rv_into = oracle" `Quick test_diff_affine_rv_into;
          Alcotest.test_case "ops on views = ops on copies" `Quick test_diff_view_ops;
          Alcotest.test_case "transpose = init-based definition" `Quick test_diff_transpose;
          Alcotest.test_case "rows_view bounds (fuzzed)" `Quick test_diff_rows_view_bounds;
          Alcotest.test_case "blit_into overlap" `Quick test_diff_blit_overlap;
          Alcotest.test_case "alias guard (fuzzed)" `Quick test_diff_alias_guard_fuzzed;
          Alcotest.test_case "signed zeros" `Quick test_signed_zero_semantics;
        ] );
      ("properties", qc);
    ]

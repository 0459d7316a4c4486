module T = Pnc_tensor.Tensor

type t = {
  id : int;
  value : T.t;
  mutable grad : T.t option; (* allocated lazily on first contribution *)
  parents : (t * (T.t -> T.t)) list;
  sweep : (T.t -> (t -> T.t -> unit) -> unit) option;
      (* a fused node's hand-written backward; its [parents] edges then
         only record the parents and are never called *)
  requires : bool;
}

let counter = ref 0

let next_id () =
  incr counter;
  !counter

let value v = v.value

let grad v =
  match v.grad with
  | Some g -> g
  | None -> T.zeros ~rows:(T.rows v.value) ~cols:(T.cols v.value)

let grad_opt v = v.grad
let requires_grad v = v.requires

(* Tape ------------------------------------------------------------------ *)

(* Interior nodes are recorded at creation, in creation order — which is
   a topological order of any DAG built by these combinators — so
   [backward] walks the tape in reverse instead of collecting and
   sorting the reachable set on every call. The tape holds weak
   pointers: a graph the caller has dropped is collected by the GC as
   usual, and its empty slots are compacted away the next time the tape
   fills up, so recording nodes never extends their lifetime. *)
module Tape = struct
  let arr = ref (Weak.create 4096)
  let len = ref 0
  let recorded = ref 0

  let compact () =
    let a = !arr in
    let j = ref 0 in
    for i = 0 to !len - 1 do
      match Weak.get a i with
      | Some _ as v ->
          if !j < i then Weak.set a !j v;
          incr j
      | None -> ()
    done;
    for i = !j to !len - 1 do
      Weak.set a i None
    done;
    len := !j

  let push v =
    let cap = Weak.length !arr in
    if !len = cap then begin
      compact ();
      (* Still mostly live after compaction: double the capacity. *)
      if 2 * !len >= cap then begin
        let bigger = Weak.create (2 * cap) in
        Weak.blit !arr 0 bigger 0 !len;
        arr := bigger
      end
    end;
    Weak.set !arr !len (Some v);
    incr len;
    incr recorded
end

let nodes_created () = !counter
let tape_recorded () = !Tape.recorded

(* No-grad mode ---------------------------------------------------------- *)

let no_grad = ref false

let with_no_grad f =
  let saved = !no_grad in
  no_grad := true;
  Fun.protect ~finally:(fun () -> no_grad := saved) f

let mk ?(requires = true) ?sweep value parents =
  if !no_grad then
    { id = next_id (); value; grad = None; parents = []; sweep = None; requires = false }
  else begin
    let requires = requires && List.exists (fun (p, _) -> p.requires) parents in
    let v = { id = next_id (); value; grad = None; parents; sweep; requires } in
    Tape.push v;
    v
  end

let leaf ~requires value =
  { id = next_id (); value; grad = None; parents = []; sweep = None; requires }

let param value = leaf ~requires:true value
let const value = leaf ~requires:false value
let zero_grad v = v.grad <- None

let accumulate v g =
  match v.grad with
  | None -> v.grad <- Some (T.copy g)
  | Some acc -> T.add_inplace acc g

(* Binary elementwise -------------------------------------------------- *)

let add a b = mk (T.add a.value b.value) [ (a, Fun.id); (b, Fun.id) ]
let sub a b = mk (T.sub a.value b.value) [ (a, Fun.id); (b, T.neg) ]

let mul a b =
  mk (T.mul a.value b.value)
    [ (a, fun g -> T.mul g b.value); (b, fun g -> T.mul g a.value) ]

(* Straight-through multiplication by a fixed factor tensor: forward is
   v ⊙ eps (bit-identical to [mul v (const eps)]), backward is the
   identity — the gradient w.r.t. the clean parameters is taken to be
   the gradient w.r.t. the perturbed ones, dL/dv := dL/d(v⊙eps). This
   is the noise-injection estimator of the analog-CIM literature: the
   noise shapes the forward pass but is treated as transparent by the
   chain rule, so training descends the loss of the {e deployed}
   (perturbed) network without scaling each parameter's step by its own
   noise realization. *)
let ste_mul v eps = mk (T.mul v.value eps) [ (v, Fun.id) ]

let div a b =
  let y = T.div a.value b.value in
  mk y
    [ (a, fun g -> T.div g b.value);
      (b, fun g -> T.neg (T.div (T.mul g y) b.value)) ]

(* Row-vector broadcast ------------------------------------------------- *)

let add_rv m rv =
  mk (T.add_rv m.value rv.value) [ (m, Fun.id); (rv, T.sum_rows) ]

let sub_rv m rv =
  mk (T.add_rv m.value (T.neg rv.value))
    [ (m, Fun.id); (rv, fun g -> T.neg (T.sum_rows g)) ]

let mul_rv m rv =
  mk (T.mul_rv m.value rv.value)
    [ (m, fun g -> T.mul_rv g rv.value);
      (rv, fun g -> T.sum_rows (T.mul g m.value)) ]

let div_rv m rv =
  let inv = T.map (fun x -> 1. /. x) rv.value in
  let y = T.mul_rv m.value inv in
  mk y
    [ (m, fun g -> T.mul_rv g inv);
      (rv, fun g -> T.neg (T.sum_rows (T.mul_rv (T.mul g y) inv))) ]

(* Fused state update for the filter recurrences: out = s.a + x.b with
   s, x of shape [batch x n] and a, b row vectors. One node instead of
   three keeps the 64-step unrolled graphs small. *)
let affine_rv s a x b =
  let out = T.add (T.mul_rv s.value a.value) (T.mul_rv x.value b.value) in
  mk out
    [
      (s, fun g -> T.mul_rv g a.value);
      (a, fun g -> T.sum_rows (T.mul g s.value));
      (x, fun g -> T.mul_rv g b.value);
      (b, fun g -> T.sum_rows (T.mul g x.value));
    ]

(* Unary ---------------------------------------------------------------- *)

let unary f df v =
  let y = T.map f v.value in
  mk y [ (v, fun g -> T.mul g (df v.value y)) ]

let scale k v = mk (T.scale k v.value) [ (v, T.scale k) ]
let add_scalar k v = mk (T.add_scalar k v.value) [ (v, Fun.id) ]

let tanh v = unary Stdlib.tanh (fun _ y -> T.map (fun t -> 1. -. (t *. t)) y) v

let abs v = unary Float.abs (fun x _ -> T.map (fun u -> if u > 0. then 1. else if u < 0. then -1. else 0.) x) v

let sqr v = unary (fun x -> x *. x) (fun x _ -> T.scale 2. x) v

(* Linear algebra and reductions ---------------------------------------- *)

let matmul a b =
  mk (T.matmul a.value b.value)
    [ (a, fun g -> T.matmul g (T.transpose b.value));
      (b, fun g -> T.matmul (T.transpose a.value) g) ]

let sum v =
  let rows = T.rows v.value and cols = T.cols v.value in
  mk (T.scalar (T.sum v.value))
    [ (v, fun g -> T.create ~rows ~cols (T.get_scalar g)) ]

let mean v =
  let n = float_of_int (Stdlib.max 1 (T.numel v.value)) in
  scale (1. /. n) (sum v)

let sum_rows v =
  let rows = T.rows v.value in
  mk (T.sum_rows v.value)
    [ (v, fun g -> T.init ~rows ~cols:(T.cols g) (fun _ c -> T.get g 0 c)) ]

(* Fused nodes ---------------------------------------------------------- *)

let swept_edge _ = invalid_arg "Var: a fused node's edges are swept, not called"

let fused value ~parents sweep =
  assert (parents <> []);
  mk ~sweep value (List.map (fun p -> (p, swept_edge)) parents)

(* Backward ------------------------------------------------------------- *)

let backward root =
  accumulate root (T.create ~rows:(T.rows root.value) ~cols:(T.cols root.value) 1.);
  (* Walk the tape in reverse creation order. Between passes no tape
     node carries a gradient (interior gradients are released as they
     are consumed, and leaves are never on the tape), so the nodes with
     pending gradients are exactly the root plus whatever this walk
     accumulates into. Counting them lets the walk stop as soon as all
     pending gradients have drained, instead of scanning the stale
     region of long-dead graphs below the current one. *)
  let pending = ref (if root.parents = [] then 0 else 1) in
  let emit p gp =
    if p.requires then begin
      if p.grad = None && p.parents <> [] then incr pending;
      accumulate p gp
    end
  in
  let a = !Tape.arr in
  let i = ref (!Tape.len - 1) in
  while !pending > 0 && !i >= 0 do
    (match Weak.get a !i with
    | Some v when v.id <= root.id -> (
        match v.grad with
        | None -> ()
        | Some g ->
            decr pending;
            if v.requires then begin
              match v.sweep with
              | Some sweep -> sweep g emit
              | None -> List.iter (fun (p, back) -> if p.requires then emit p (back g)) v.parents
            end;
            (* Interior node gradients are only needed during
               propagation; release them so repeated forward/backward
               passes do not retain the DAG. *)
            v.grad <- None)
    | _ -> ());
    decr i
  done


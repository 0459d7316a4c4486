(** Dense row-major 2-D tensors.

    Everything in the library is expressed over matrices: a batch of
    time-series samples at one time step is [batch x features], a
    parameter vector is [1 x n], a scalar is [1 x 1]. Keeping a single
    rank makes the reverse-mode engine ({!Pnc_autodiff.Var}) small and
    easy to verify. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat element storage: a C-layout float64 Bigarray. Same IEEE-754
    doubles as the previous [float array] backing (results are
    bit-identical), but addressable from C stubs without copying and
    outside the OCaml heap (no GC scanning of element data). *)

type t = private { rows : int; cols : int; off : int; data : buffer }
(** [data.{off + r * cols + c}] stores element [(r, c)]. The type is
    private: construct through the functions below so the view invariant
    [off + rows * cols <= Bigarray.Array1.dim data] always holds.
    Allocating constructors produce [off = 0] tensors whose buffer is
    exactly [rows * cols]; {!rows_view} produces contiguous views
    ([off > 0] possible) that share the buffer {e value} of the viewed
    tensor — never an [Array1.sub] proxy — so physical equality on
    [data] remains a sound aliasing test for the kernels. {!columns}
    returns views of one fresh buffer in the same way. *)

val create : rows:int -> cols:int -> float -> t
val zeros : rows:int -> cols:int -> t
val scalar : float -> t
(** A [1 x 1] tensor. *)

val of_array : rows:int -> cols:int -> float array -> t
(** Copies the array (the result never aliases the caller's buffer);
    length must be [rows*cols]. *)

val of_row : float array -> t
(** [1 x n] row vector (copies). *)

val of_rows : float array array -> t
(** Matrix from equal-length rows (copies). *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t

val rows : t -> int
val cols : t -> int
val numel : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val to_row_array : t -> float array
(** Flat copy of the data (row-major). *)

val row : t -> int -> float array
(** Copy of one row. *)

val col : t -> int -> t
(** Column [c] as an [rows x 1] tensor (copies). Raises
    [Invalid_argument] unless [0 <= c < cols t]. *)

val columns : t -> t array
(** [columns t] is [Array.init (cols t) (col t)] — the same elements,
    bit for bit — built with one allocation: a transposed copy of [t]
    whose columns come back as [rows x 1] views. The views share that
    one buffer (with each other, never with [t]); the per-time-step
    forwards only read them, so one split can serve any number of
    draws and pool workers. *)

val rows_view : t -> row:int -> len:int -> t
(** [rows_view t ~row ~len] is the [len x cols t] block of consecutive
    rows starting at [row], sharing [t]'s buffer — no copy; writes
    through the view are visible in [t] and vice versa. Raises
    [Invalid_argument] when the row range falls outside [t]. *)

val blit_into : dst:t -> t -> unit
(** [blit_into ~dst src] copies the elements of [src] into [dst];
    equal shapes. Views allowed on both sides. *)

val get_scalar : t -> float
(** The single element of a [1 x 1] tensor. *)

val same_shape : t -> t -> bool

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val fill : t -> float -> unit
val add_inplace : t -> t -> unit
(** [add_inplace acc x] accumulates [x] into [acc]; equal shapes. *)

(** {1 Broadcast over rows}

    The second operand is a [1 x n] row vector combined with every row
    of an [m x n] matrix — used for biases and per-feature
    coefficients. *)

val add_rv : t -> t -> t
val mul_rv : t -> t -> t

val add_rv_inplace : t -> t -> unit
val mul_rv_inplace : t -> t -> unit
(** In-place variants mutating the matrix operand — allocation-free
    kernels for the no-grad evaluation path. *)

val add_mul_rv_inplace : t -> add:t -> mul:t -> unit
(** [add_mul_rv_inplace m ~add ~mul] replaces each element [m.(r).(c)]
    with [(m.(r).(c) +. add.(0).(c)) *. mul.(0).(c)] — the same
    per-element expression as {!add_rv_inplace} followed by
    {!mul_rv_inplace}, fused into one memory pass (the crossbar's
    bias-plus-normalization step). *)

val affine_rv_into : dst:t -> t -> t -> t -> t -> unit
(** [affine_rv_into ~dst s a x b] writes [s ∘ a + x ∘ b] into [dst]
    ([s], [x], [dst] matrices of one shape; [a], [b] row vectors).
    [dst] may alias [s] — the filter state update runs in place. *)

(** {1 Linear algebra} *)

val matmul : t -> t -> t

val matmul_into : dst:t -> t -> t -> unit
(** [matmul_into ~dst a b] overwrites [dst] with [a × b] (zero-fills
    first). The kernel is cache-blocked over rows and the inner
    dimension, with k-tiles visited in ascending order so each output
    element accumulates in the same order as the naive triple loop —
    bit-identical results at any shape. Raises [Invalid_argument] when
    [dst] shares a buffer with [a] or [b] (the kernel zero-fills [dst]
    before reading the inputs, so aliasing would silently corrupt
    them). *)

val transpose : t -> t
(** Fresh [cols x rows] copy with element [(c, r)] = [get t r c]; works
    on views. One unboxed pass, no per-element closure. *)

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val sum_rows : t -> t
(** [m x n -> 1 x n]: column sums. *)

val sum_cols : t -> t
(** [m x n -> m x 1]: row sums. *)

val max_abs : t -> float

(** {1 Construction helpers} *)

val uniform : Pnc_util.Rng.t -> rows:int -> cols:int -> lo:float -> hi:float -> t
val gaussian : Pnc_util.Rng.t -> rows:int -> cols:int -> mu:float -> sigma:float -> t
val one_hot : n_classes:int -> int array -> t
(** [batch x n_classes] indicator matrix. *)

val argmax_rows : t -> int array

val equal_eps : eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

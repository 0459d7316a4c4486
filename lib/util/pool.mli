(** Fixed-size domain pool for embarrassingly-parallel evaluation work.

    A pool owns [size] worker domains fed from one shared work queue
    (mutex + condition variable). It exists to parallelize the
    read-only Monte-Carlo hot loops — independent forward passes on the
    pure-tensor no-grad path — across cores of the OCaml 5 runtime.

    {b Determinism contract.} The pool never changes results, only
    wall-clock time: {!init} and {!map} write each task's result into
    its own slot, so the output order is the submission order no matter
    which worker ran which task or in which order tasks finished.
    Callers pair this with {!Rng.split_n} (one pre-split child stream
    per task) so that a task's random draws are a function of its index
    alone — the pooled result is then bit-identical to the sequential
    one for every worker count.

    {b Safety.} Pool tasks must not build autodiff graphs: the [Var]
    gradient tape is global state owned by the main domain. Only the
    pure-tensor [*_t] evaluation paths may run inside a pool. *)

type t

val default_size : unit -> int
(** [Domain.recommended_domain_count () - 1] (never negative): one
    worker per available core, leaving a core for the submitting
    domain. *)

val minor_heap_words : int
(** The minor heap size, in words, of every domain the library spawns
    (32k words, 256 KB, against the runtime's default 256k). *)

val spawn : (unit -> 'a) -> 'a Domain.t
(** [Domain.spawn f], with the new domain's minor heap set to
    {!minor_heap_words} before [f] runs. The pool's workers and the
    serving daemon's handler domains start through it; the caller's
    own heap is left as it is. *)

val create : ?size:int -> unit -> t
(** Spawn a pool of [size] workers (default {!default_size}). Sizes 0
    and 1 spawn {e no} domains: every task then runs sequentially in
    the caller, making single-core behaviour identical to not having a
    pool at all. Raises [Invalid_argument] on negative sizes, and
    [Failure] when the runtime cannot spawn another domain, after
    stopping and joining the workers already started. *)

val size : t -> int

val stats : t -> int array * float array
(** [(tasks, busy_s)]: per-worker completed-task counts and (when an
    observability sink is installed — see {!Pnc_obs.Obs.enabled}) busy
    seconds, both of length [max 1 size]. On the sequential fallback
    everything lands in slot 0. Which worker ran which task is
    scheduler-dependent, so the per-slot split is {e not}
    deterministic — only the results of {!init}/{!map} are. Read after
    {!shutdown} (or between submissions) for consistent values.
    {!shutdown} additionally emits one [pool.worker] telemetry event
    per slot when a sink is installed. *)

val init : t -> n:int -> (int -> 'a) -> 'a array
(** [init pool ~n f] is [Array.init n f] computed on the pool: tasks
    [f 0 .. f (n-1)] are distributed across the workers and the result
    array preserves index order. Blocks until all tasks finish. If one
    or more tasks raise, the exception of the lowest-indexed failing
    task is re-raised after all tasks have completed — the pool itself
    stays usable. Raises [Invalid_argument] when called from inside a
    pool task (nested submission) or after {!shutdown}. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs] computed on the pool; same
    ordering, exception and nesting guarantees as {!init}. *)

val run : t -> (unit -> unit) list -> unit
(** Run side-effecting tasks to completion on the pool; same
    guarantees as {!init}. *)

val shutdown : t -> unit
(** Drain outstanding work, stop the workers and join every domain.
    Idempotent. Subsequent submissions raise [Invalid_argument]. *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards
    (also on exception). *)

(** Process-sharded experiment grid over the checkpoint cache.

    The (dataset × variant × seed) training grid behind every paper
    artifact is sharded across N worker {e processes} that coordinate
    solely through the filesystem of one cache directory — no pipes,
    sockets or shared memory (domains add overhead on small
    containers; processes also make crash faults honest). The protocol (docs/GRID.md):

    - a {e cell} is one (dataset, variant, seed) training run, cached
      as a CRC-checked ["grid-cell"] checkpoint at
      {!Pnc_exp.Experiments.cell_path} and published by atomic rename;
    - a worker wanting to compute a cell first takes the cell's
      {!Pnc_ckpt.Lease} claim file; claims of dead or hung workers are
      reaped by siblings, so a SIGKILL-ed worker delays its cell, never
      loses it;
    - cells are idempotent and deterministic, so a duplicated
      computation (possible after a reap race) republishes byte-wise
      compatible results — exactly-once {e effect} without any lock
      being load-bearing;
    - {!merge} assembles tables by walking the canonical enumeration
      {!Pnc_exp.Experiments.grid_keys} and is therefore byte-identical
      for every shard count and completion order.

    Workers keep polling until {e every} cell of their grid is valid,
    so any single surviving worker completes the whole grid. *)

module Config := Pnc_exp.Config
module Experiments := Pnc_exp.Experiments

(** {1 The claim/compute/publish protocol, generically}

    [Proto] is deliberately ignorant of models and datasets: a cell is
    just a target path plus [load]/[compute] callbacks. The
    fault-injection battery ([test/test_grid.ml]) drives it with cheap
    synthetic cells; the experiment grid instantiates it via
    {!cells_of_config}. *)

module Proto : sig
  type 'a cell = {
    cell_id : string;  (** human-readable label for progress/telemetry *)
    path : string;  (** final artifact location (published atomically) *)
    load : unit -> 'a option;
        (** The result at [path], or [None] unless a trustworthy one is
            there — must fully validate (decode + checksums), never
            trust existence. *)
    compute : unit -> unit;
        (** Produce the result and publish it at [path] by atomic
            rename (e.g. {!Pnc_ckpt.Ckpt.save}). Must be idempotent
            and deterministic. *)
  }

  val claim_path : string -> string
  (** [path ^ ".claim"]. *)

  val reap_tmp : path:string -> int
  (** Remove leftover [path ^ ".tmp.<pid>"] staging files whose writer
      pid is dead (a SIGKILL mid-publish leaves one), returning how
      many were removed. Live writers' temp files are left alone. Call
      only while holding the cell's claim. *)

  val work :
    ?lease_ttl:float ->
    ?poll_s:float ->
    ?progress:(string -> unit) ->
    owner:string ->
    'a cell list ->
    int * 'a list
  (** Run the worker loop until every cell in the list is valid;
      returns the number of cells this worker computed and every
      cell's loaded value, in list order. Each pass: skip valid cells
      (a cell's value is kept from the check that loaded it, so a
      complete cache costs one [load] per cell; a cell valid at its
      first check counts [grid.cache_hits] and emits
      [grid.cell.cached]); try to claim an invalid one
      (reaping stale claims per {!Pnc_ckpt.Lease.try_acquire}); recheck validity
      under the claim (a sibling may have published first), reap dead
      writers' temp litter, compute, publish, release. A computed cell
      is loaded back from its file by the next check, never taken from
      [compute]. When every
      remaining cell is claimed by a live sibling, sleep [poll_s]
      (default 0.25 s) and rescan. If [compute] raises, the claim is
      released and the exception propagates (the cell returns to the
      pool). *)
end

(** {1 The experiment grid instance} *)

val cells_of_config :
  ?pool:Pnc_util.Pool.t ->
  dir:string ->
  Config.t ->
  variants:Experiments.variant list ->
  Experiments.run Proto.cell list
(** One {!Proto.cell} per {!Pnc_exp.Experiments.grid_keys} entry:
    [load] is a full {!Pnc_exp.Experiments.load_cell} (CRC +
    fingerprint + identity), [compute] is
    {!Pnc_exp.Experiments.train_run} (its evaluations on [pool]) +
    {!Pnc_exp.Experiments.save_cell}, and emits a [grid.result] event.
    This is the only code that trains and publishes a cell. *)

val variants_of_string : string -> Experiments.variant list
(** ["all"] (the six-variant grid), ["table1"] or ["fig7"].
    @raise Invalid_argument otherwise. *)

(** {1 Status} *)

type state = Done | Claimed | Stale | Pending
(** [Done]: a valid cell checkpoint exists. [Claimed]: a live worker
    holds the claim. [Stale]: something exists but cannot be trusted —
    a corrupt or truncated cell file, an interrupted-write [.tmp.<pid>]
    leftover, or a dead/hung worker's claim; stale cells are reaped
    and recomputed, never trusted. [Pending]: nothing there yet. *)

val state_name : state -> string

type cell_status = {
  dataset : string;
  variant : Experiments.variant;
  seed : int;
  state : state;
  train_seconds : float option;  (** from the cached cell, when [Done] *)
}

type status = {
  total : int;
  done_ : int;
  claimed : int;
  stale : int;
  pending : int;
  mean_cell_s : float option;  (** mean train seconds over done cells *)
  eta_s : float option;
      (** sequential time to finish the remainder at the observed mean
          cell cost; divide by the shard count you will run *)
  cells : cell_status list;  (** in canonical {!Experiments.grid_keys} order *)
}

val classify :
  ?lease_ttl:float ->
  dir:string ->
  Config.t ->
  dataset:string ->
  variant:Experiments.variant ->
  seed:int ->
  state

val status :
  ?lease_ttl:float -> dir:string -> Config.t -> variants:Experiments.variant list -> status

val status_json_lines : status -> string list
(** JSONL rendering (one [grid.cell.status] object per cell plus one
    final [grid.status] summary object) — the machine-readable
    artifact CI uploads. Deterministic given the classification. *)

val print_status : status -> unit

(** {1 Orchestration} *)

val spawn_workers :
  shards:int -> argv:(worker_id:int -> string array) -> (int * Unix.process_status) list
(** Spawn one worker subprocess per shard (argv.(0) must be the
    executable path; stdio is inherited), wait for all of them, and
    return [(worker_id, status)] pairs in worker order. *)

(** {1 Merge} *)

val merge :
  dir:string ->
  Config.t ->
  variants:Experiments.variant list ->
  (Experiments.run list, string list) result
(** Deterministic table assembly: load every cell of the canonical
    enumeration from the cache ({e no} training); [Error ids] lists
    the cells that are missing or fail validation. The returned list
    is in {!Experiments.grid_keys} order whatever the completion
    order was. *)

val print_merged : Config.t -> variants:Experiments.variant list -> Experiments.run list -> unit
(** Render every artifact the selected variants can support (Table I
    needs Reference+Base+Full, Fig. 5 Base, Fig. 7 the five ablation
    variants, Table III Base+Full). Output contains no timings or
    timestamps, so it is byte-identical across shard counts,
    completion orders and crash/resume histories — enforced by
    [test/test_grid.ml] and the CI grid job. *)

(** {1 Driver} *)

val run :
  ?pool:Pnc_util.Pool.t ->
  ?lease_ttl:float ->
  ?progress:(string -> unit) ->
  dir:string ->
  Config.t ->
  variants:Experiments.variant list ->
  Experiments.run list
(** Fill [dir]'s cache in-process and read it back: {!Proto.work} as
    ["worker-0"] over {!cells_of_config}. Returns the runs in
    {!Experiments.grid_keys} order, each loaded once from its cell
    file, so a warm call returns what the cold call computed. It takes
    each cell's claim, so it shares [dir] safely with `grid worker`
    processes; results do not depend on [pool]. *)

module Obs = Pnc_obs.Obs
module Clock = Pnc_obs.Clock

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  mutable alive : bool;
  created : float; (* Clock.now at creation, for utilization *)
  (* Per-worker telemetry. Slot w is written only by worker w (slot 0
     by the caller on the sequential fallback), so no synchronization
     is needed beyond the joins that already order reads. *)
  tasks_done : int array;
  busy_s : float array;
}

let default_size () = Stdlib.max 0 (Domain.recommended_domain_count () - 1)

(* 32k words (256 KB) in place of the runtime's 256k (2 MB). Every
   OCaml 5 domain owns a minor heap, so the default makes each worker
   cost 2 MB of resident memory. Workers run no-grad forwards: a
   circuit draw reuses its domain's workspace and allocates its
   realized parameters and its logits (2.7 kwords at the [mc] shape),
   an Elman forward its few buffers once per call. A minor collection
   stops every domain, so code that workers run must not box each
   element or take a fresh tensor per time step: on this heap that
   collects several times per task. *)
let minor_heap_words = 32 * 1024

let spawn f =
  Domain.spawn (fun () ->
      Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words };
      f ())

(* Set in each worker domain so that nested submission — a pool task
   submitting to a pool, which would deadlock a full pool — is rejected
   eagerly instead of wedging. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker_loop pool w () =
  Domain.DLS.set in_worker true;
  let rec next () =
    Mutex.lock pool.mutex;
    let rec take () =
      if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
      else if pool.stop then None
      else begin
        Condition.wait pool.has_work pool.mutex;
        take ()
      end
    in
    let job = take () in
    Mutex.unlock pool.mutex;
    match job with
    | None -> ()
    | Some job ->
        (* Tasks wrap their own exceptions (see [init]); a raise here
           would kill the worker and wedge the pool. *)
        if Obs.enabled () then begin
          let t0 = Clock.now () in
          job ();
          pool.busy_s.(w) <- pool.busy_s.(w) +. Clock.elapsed t0
        end
        else job ();
        pool.tasks_done.(w) <- pool.tasks_done.(w) + 1;
        next ()
  in
  next ()

let create ?size () =
  let size = match size with Some s -> s | None -> default_size () in
  if size < 0 then invalid_arg "Pool.create: negative size";
  let slots = Stdlib.max 1 size in
  let pool =
    {
      size;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      stop = false;
      workers = [||];
      alive = true;
      created = Clock.now ();
      tasks_done = Array.make slots 0;
      busy_s = Array.make slots 0.;
    }
  in
  if size > 1 then begin
    let started = ref [] in
    (try
       for w = 0 to size - 1 do
         started := spawn (worker_loop pool w) :: !started
       done
     with e ->
       (* The runtime ran out of domains: stop the workers already
          started, so a failed [create] leaves none behind. *)
       Mutex.lock pool.mutex;
       pool.stop <- true;
       Condition.broadcast pool.has_work;
       Mutex.unlock pool.mutex;
       List.iter Domain.join !started;
       raise e);
    pool.workers <- Array.of_list (List.rev !started)
  end;
  pool

let size pool = pool.size
let stats pool = (Array.copy pool.tasks_done, Array.copy pool.busy_s)

let check_submittable pool who =
  if Domain.DLS.get in_worker then
    invalid_arg (who ^ ": nested submission from inside a pool task");
  if not pool.alive then invalid_arg (who ^ ": pool is shut down")

let init pool ~n f =
  if n < 0 then invalid_arg "Pool.init: negative n";
  check_submittable pool "Pool.init";
  if pool.size <= 1 || n <= 1 then begin
    let t0 = if Obs.enabled () then Clock.now () else 0. in
    let r = Array.init n f in
    if Obs.enabled () then pool.busy_s.(0) <- pool.busy_s.(0) +. Clock.elapsed t0;
    pool.tasks_done.(0) <- pool.tasks_done.(0) + n;
    r
  end
  else begin
    (* Each task writes its own slot; the join mutex publishes the
       writes to the caller, so index order is preserved regardless of
       scheduling. *)
    let results = Array.make n None in
    let remaining = ref n in
    let join_mutex = Mutex.create () in
    let all_done = Condition.create () in
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      Queue.push
        (fun () ->
          let r = try Ok (f i) with e -> Error e in
          results.(i) <- Some r;
          Mutex.lock join_mutex;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock join_mutex)
        pool.queue
    done;
    Condition.broadcast pool.has_work;
    Mutex.unlock pool.mutex;
    Mutex.lock join_mutex;
    while !remaining > 0 do
      Condition.wait all_done join_mutex
    done;
    Mutex.unlock join_mutex;
    (* Re-raise the lowest-indexed failure, deterministically. *)
    Array.map
      (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      results
  end

let map pool f xs =
  let arr = Array.of_list xs in
  Array.to_list (init pool ~n:(Array.length arr) (fun i -> f arr.(i)))

let run pool tasks = ignore (map pool (fun task -> task ()) tasks)

let shutdown pool =
  if pool.alive then begin
    pool.alive <- false;
    Mutex.lock pool.mutex;
    pool.stop <- true;
    Condition.broadcast pool.has_work;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||];
    if Obs.enabled () then begin
      (* The joins above ordered every worker's slot writes before
         these reads. *)
      let lifetime = Clock.elapsed pool.created in
      let total = Array.fold_left ( + ) 0 pool.tasks_done in
      Array.iteri
        (fun w tasks ->
          Obs.emit "pool.worker"
            [
              ("worker", Obs.Int w);
              ("tasks", Obs.Int tasks);
              ("busy_s", Obs.Float pool.busy_s.(w));
              ( "utilization",
                Obs.Float (if lifetime > 0. then pool.busy_s.(w) /. lifetime else 0.) );
            ])
        pool.tasks_done;
      Obs.emit "pool.shutdown"
        [
          ("size", Obs.Int pool.size);
          ("tasks_total", Obs.Int total);
          ("lifetime_s", Obs.Float lifetime);
        ]
    end
  end

let with_pool ?size f =
  let pool = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* A fixed worker pool over Domains with deterministic work stealing.

   Workers are parked on a condition variable between batches.  A batch
   splits the item index space into [jobs] contiguous ranges, one per
   worker; every range is drained through an atomic claim cursor that
   only moves forward, in chunks of a size that is a pure function of
   (n, jobs).  A worker that exhausts its own range steals from the
   other ranges (scanning victims in a fixed order), using the same
   claim protocol, so no item is ever run twice and an idle worker never
   waits out a loaded range.  Which worker runs an item may vary with
   timing; what cannot vary is the result: every item writes its own
   pre-allocated slot ([Ok] or the captured exception) and the slots are
   merged by item index, so output equals the sequential run's. *)

type slot = Idle | Work of (unit -> unit)

let sp_worker = Mp_obs.Span.make "pool.worker"
let c_batches = Mp_obs.Counter.make "pool.batches"

(* Steal traffic and busy time depend on OS scheduling, so these three
   are the one family of counters that is *not* reproducible run to run;
   the bench harness excludes them from the BENCH_core.json baselines it
   otherwise gates exactly. *)
let c_steals = Mp_obs.Counter.make "pool.steals"
let c_tasks_stolen = Mp_obs.Counter.make "pool.tasks_stolen"
let c_busy_ns = Mp_obs.Counter.make "pool.busy_ns"

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  slots : slot array;  (* one per spawned domain; length jobs - 1 *)
  mutable busy : int;  (* spawned-domain slots still running this batch *)
  mutable in_batch : bool;  (* a map is in flight (any jobs value) *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* One worker's whole participation in a batch, under the per-worker
   busy probes: a [pool.worker] span plus this domain's share of
   [pool.busy_ns].  A single branch and no allocation when the probes
   are off. *)
let participate f =
  if not !Mp_obs.enabled then f ()
  else begin
    let t0 = Mp_obs.now_ns () in
    Mp_obs.Span.enter sp_worker;
    Fun.protect f ~finally:(fun () ->
        Mp_obs.Span.exit sp_worker;
        Mp_obs.Counter.add c_busy_ns (max 0 (Mp_obs.now_ns () - t0)))
  end

let worker t w =
  let rec loop () =
    Mutex.lock t.mutex;
    while t.slots.(w) = Idle && not t.closed do
      Condition.wait t.work_ready t.mutex
    done;
    match t.slots.(w) with
    | Idle ->
        (* closed with nothing assigned *)
        Mutex.unlock t.mutex
    | Work f ->
        Mutex.unlock t.mutex;
        participate f;
        Mutex.lock t.mutex;
        t.slots.(w) <- Idle;
        t.busy <- t.busy - 1;
        if t.busy = 0 then Condition.broadcast t.work_done;
        Mutex.unlock t.mutex;
        loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      slots = Array.make (jobs - 1) Idle;
      busy = 0;
      in_batch = false;
      closed = false;
      domains = [||];
    }
  in
  t.domains <- Array.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker t w));
  t

let jobs t = t.jobs

(* --- stealing executor ------------------------------------------------- *)

(* Claim granularity: a pure function of (n, jobs) alone — never of
   wall-clock or thread identity, so the set of *possible* claim points
   is fixed for a given batch shape.  Small batches claim single items
   (perfect balance under skew); large batches amortize the atomic RMW,
   capped at 32 so the terminal imbalance stays at most one small chunk
   per worker. *)
let chunk_size ~n ~jobs = max 1 (min 32 (n / (16 * jobs)))

(* The contiguous initial ranges: worker [w] owns [lo, hi) with the
   first (n mod jobs) ranges one item longer. *)
let ranges n jobs =
  let base = n / jobs and extra = n mod jobs in
  Array.init jobs (fun w ->
      let lo = (w * base) + min w extra in
      (lo, lo + base + if w < extra then 1 else 0))

(* Drain range [v]: claim chunks through the shared cursor (each claim
   is one [Atomic.fetch_and_add], so an index is handed to exactly one
   worker) and run the claimed items in increasing index order.  Returns
   (items run, an item raised).  On an exception the rest of the claimed
   chunk is abandoned; its slots stay [None], which is fine — the
   cursor only moves forward, so in index order the [Error] slot is
   always reached before any abandoned [None] (see the merge). *)
let drain results items f cursors his ~chunk v =
  let cursor = cursors.(v) and hi = his.(v) in
  let ran = ref 0 and failed = ref false and exhausted = ref false in
  while not (!failed || !exhausted) do
    let i0 = Atomic.fetch_and_add cursor chunk in
    if i0 >= hi then exhausted := true
    else begin
      let stop = min hi (i0 + chunk) in
      let i = ref i0 in
      try
        while !i < stop do
          results.(!i) <- Some (Ok (f items.(!i)));
          incr ran;
          incr i
        done
      with e ->
        results.(!i) <- Some (Error e);
        incr ran;
        failed := true
    end
  done;
  (!ran, !failed)

(* Worker [w]'s batch participation: drain its own range, then scan the
   victims in the fixed order w+1, w+2, … (mod jobs) and drain theirs.
   A worker that captures an item's exception stops contributing; the
   remaining items are still drained by the other workers, and if every
   worker stops, any item left unclaimed sits at a higher index than the
   error that stopped its range's last claimant — the ordered merge
   below therefore always reaches an [Error] first. *)
let steal_body results items f cursors his jobs ~chunk w () =
  let _, failed = drain results items f cursors his ~chunk w in
  if not failed then begin
    let steals = ref 0 and stolen = ref 0 in
    let d = ref 1 and stop = ref false in
    while (not !stop) && !d < jobs do
      let v = (w + !d) mod jobs in
      let ran, failed = drain results items f cursors his ~chunk v in
      if ran > 0 then begin
        incr steals;
        stolen := !stolen + ran
      end;
      if failed then stop := true;
      incr d
    done;
    if !steals > 0 then begin
      Mp_obs.Counter.add c_steals !steals;
      Mp_obs.Counter.add c_tasks_stolen !stolen
    end
  end

(* --- batches ------------------------------------------------------------ *)

let map_array t f items =
  let n = Array.length items in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: pool is shut down"
  end;
  if t.in_batch then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: concurrent map on the same pool"
  end;
  if n = 0 then begin
    Mutex.unlock t.mutex;
    [||]
  end
  else begin
    t.in_batch <- true;
    Mp_obs.Counter.incr c_batches;
    let results = Array.make n None in
    (* [body w] is worker [w]'s whole participation.  A spawned worker
       whose initial range is empty is not woken: an empty range means an
       empty batch tail, which the live workers drain. *)
    let rs = ranges n t.jobs in
    let cursors = Array.map (fun (lo, _) -> Atomic.make lo) rs in
    let his = Array.map snd rs in
    let body = steal_body results items f cursors his t.jobs ~chunk:(chunk_size ~n ~jobs:t.jobs) in
    let assigned = ref 0 in
    for w = 0 to t.jobs - 2 do
      let lo, hi = rs.(w) in
      if lo < hi then begin
        t.slots.(w) <- Work (body w);
        incr assigned
      end
    done;
    t.busy <- !assigned;
    if !assigned > 0 then Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* the calling domain participates as the last worker *)
    participate (body (t.jobs - 1));
    Mutex.lock t.mutex;
    while t.busy > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.in_batch <- false;
    Mutex.unlock t.mutex;
    (* merge in item order: the smallest-index failure wins, as it would
       sequentially (a [None] can only follow an [Error] at a smaller
       index — a claimed chunk abandons only the indices after its
       exception, and an unclaimed index means its range's last claimant
       failed below it) *)
    for i = 0 to n - 1 do
      match results.(i) with Some (Error e) -> raise e | _ -> ()
    done;
    Array.map (function Some (Ok v) -> v | _ -> assert false) results
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))

(* A speculative wave: every thunk runs (they are independent probes of a
   search), but the *selection* replays the sequential scan — walk the
   slots in index order, re-raise the first captured exception, stop at
   the first [Some].  Thunk exceptions are captured into the result slots
   by the wrapper below, never surfaced by [map_array] itself, so an
   exception at index j is suppressed by a success at i < j exactly as a
   sequential scan (which would never have evaluated j) suppresses it. *)
let first_some t thunks =
  let results =
    map_array t (fun thunk -> match thunk () with v -> Ok v | exception e -> Error e) thunks
  in
  let n = Array.length results in
  let rec scan i =
    if i >= n then None
    else
      match results.(i) with
      | Error e -> raise e
      | Ok (Some v) -> Some (i, v)
      | Ok None -> scan (i + 1)
  in
  scan 0

let shutdown t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  if not was_closed then Array.iter Domain.join t.domains

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run ?jobs f xs = with_pool ?jobs (fun t -> map t f xs)

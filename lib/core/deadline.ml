module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Analysis = Mp_dag.Analysis
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Schedule = Mp_cpa.Schedule
module Allocation = Mp_cpa.Allocation
module Mapping = Mp_cpa.Mapping

type aggressive = DL_BD_ALL | DL_BD_CPA | DL_BD_CPAR
type conservative = DL_RC_CPA | DL_RC_CPAR

let aggressive_name = function
  | DL_BD_ALL -> "DL_BD_ALL"
  | DL_BD_CPA -> "DL_BD_CPA"
  | DL_BD_CPAR -> "DL_BD_CPAR"

let conservative_name = function DL_RC_CPA -> "DL_RC_CPA" | DL_RC_CPAR -> "DL_RC_CPAR"

let c_tasks_placed = Mp_obs.Counter.make "deadline.tasks_placed"
let c_probes = Mp_obs.Counter.make "deadline.tightest.probes"
let sp_place = Mp_obs.Span.make "deadline.place"
let sp_backward = Mp_obs.Span.make "deadline.backward"

(* Latest-start placement among the task's distinct-duration processor
   counts up to a per-task bound: the aggressive move, also used as
   fallback by the conservative algorithms. *)
let place_latest cal task ~dl ~(cands : Task.candidates) =
  (* Candidates by descending processor count (ascending duration): once
     [dl - dur] falls below the best start found, no remaining (longer)
     candidate can start later, so the scan stops.  On loose deadlines the
     very first candidate ends the loop. *)
  let nps = cands.Task.nps and durs = cands.Task.durs in
  let journal = Mp_forensics.Journal.enabled () in
  if journal then
    Mp_forensics.Journal.begin_placement Mp_forensics.Journal.Backward ~task:task.Task.id
      ~anchor:dl ~bound:cands.Task.bound ~evaluated:(Array.length nps);
  let rec go best c =
    if c < 0 then best
    else
      let np = nps.(c) and dur = durs.(c) in
      match best with
      | Some (bs, _, _) when dl - dur < bs ->
          Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.Early_cut;
          best
      | _ -> (
          (* A fit strictly before the best start is discarded below (the
             scan's processor counts only decrease, so an equal start always
             wins its tie), so the query may stop the moment its window
             drops below [bs] — raising [earliest] to [bs] changes no
             placement, only how soon a losing scan gives up.  With the
             journal on, keep the unbounded query so the recorded
             candidates (starts of beaten fits) stay exactly as before;
             the extra work is placement-identical by the same argument. *)
          let earliest =
            if journal then 0
            else match best with None -> 0 | Some (bs, _, _) -> max 0 bs
          in
          match Calendar.Txn.latest_fit cal ~earliest ~finish_by:dl ~procs:np ~dur with
          | None ->
              Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.No_fit;
              go best (c - 1)
          | Some s as fit ->
              let better =
                match best with None -> true | Some (bs, _, bnp) -> s > bs || (s = bs && np < bnp)
              in
              Mp_forensics.Journal.cand ~procs:np ~dur ~fit
                (if better then Mp_forensics.Journal.Leading else Mp_forensics.Journal.Beaten);
              go (if better then Some (s, s + dur, np) else best) (c - 1))
  in
  match go None (Array.length nps - 1) with
  | Some (s, fin, np) as slot ->
      Mp_forensics.Journal.end_placement ~procs:np ~start:s ~finish:fin;
      slot
  | None ->
      Mp_forensics.Journal.end_placement_failed ();
      None

(* Fewest processors whose earliest feasible start clears [threshold] while
   still finishing by [dl].  [jctx] carries (reference, lambda) for the
   decision journal only — never consulted by the placement itself. *)
let place_conservative ?jctx cal task ~dl ~threshold ~(cands : Task.candidates) =
  let threshold = max 0 threshold in
  let nps = cands.Task.nps and durs = cands.Task.durs in
  let n_cands = Array.length nps in
  let journal = Mp_forensics.Journal.enabled () in
  if journal then begin
    Mp_forensics.Journal.begin_placement Mp_forensics.Journal.Conservative ~task:task.Task.id
      ~anchor:dl ~bound:cands.Task.bound ~evaluated:n_cands;
    match jctx with
    | Some (reference, lambda) -> Mp_forensics.Journal.note_reference ~reference ~threshold ~lambda
    | None -> ()
  end;
  let rec try_candidates c =
    if c >= n_cands then begin
      Mp_forensics.Journal.end_placement_failed ();
      None
    end
    else
      let np = nps.(c) and dur = durs.(c) in
      if threshold + dur > dl then begin
        Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.Window_closed;
        try_candidates (c + 1)
      end
      else begin
        (* Starts past [dl - dur] miss the deadline and fall through to the
           next candidate; bounding the query there lets a doomed scan stop
           at the window's edge instead of walking to the calendar's empty
           tail.  Unbounded when the journal is on, so the recorded fit of
           a deadline-missing candidate stays exactly as before. *)
        let limit = if journal then max_int else dl - dur in
        match Calendar.Txn.earliest_fit ~limit cal ~after:threshold ~procs:np ~dur with
        | Some s when s + dur <= dl ->
            if journal then begin
              Mp_forensics.Journal.cand ~procs:np ~dur ~fit:(Some s)
                Mp_forensics.Journal.Leading;
              Mp_forensics.Journal.end_placement ~procs:np ~start:s ~finish:(s + dur)
            end;
            Some (s, s + dur, np)
        | Some _ as fit ->
            Mp_forensics.Journal.cand ~procs:np ~dur ~fit Mp_forensics.Journal.Misses_deadline;
            try_candidates (c + 1)
        | None ->
            Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.No_fit;
            try_candidates (c + 1)
      end
  in
  try_candidates 0

(* Shared backward list-scheduling loop over a precomputed increasing
   bottom-level order.  [place] decides one task's slot given the current
   calendar and the task's completion deadline. *)
let backward ~order (env : Env.t) dag ~deadline ~place =
  Mp_obs.Span.wrap sp_backward @@ fun () ->
  let nb = Dag.n dag in
  let slots = Array.make nb ({ start = 0; finish = 0; procs = 0 } : Schedule.slot) in
  (* The pass reserves and queries strictly forward through calendar
     versions, so it runs on a mutable transaction over the shared base
     calendar instead of building a persistent version per task. *)
  let cal = Calendar.Txn.start env.calendar in
  let rec go k =
    if k < 0 then Some { Schedule.slots }
    else begin
      let i = order.(k) in
      let dl =
        Array.fold_left (fun acc j -> min acc slots.(j).Schedule.start) deadline (Dag.succs dag i)
      in
      Mp_obs.Span.enter sp_place;
      let slot = place cal ~k ~i ~dl in
      Mp_obs.Span.exit sp_place;
      match slot with
      | None -> None
      | Some (s, fin, np) ->
          Mp_obs.Counter.incr c_tasks_placed;
          Calendar.Txn.reserve cal (Reservation.make ~start:s ~finish:fin ~procs:np);
          slots.(i) <- { start = s; finish = fin; procs = np };
          go (k - 1)
    end
  in
  go (nb - 1)

(* The allocation-dependent data (bottom-level order, CPA allocations for
   bounds and reference schedules) only depends on (env, dag), never on
   the deadline; the *_prepared variants compute it once so that deadline
   sweeps — the λ search and the tightest-deadline binary search — pay for
   it once instead of per probe. *)

(* One candidate table per task, computed when the prepared closure is
   built and shared by every deadline probe (and every placement of every
   probe) thereafter. *)
let candidate_tables dag ~bound_of =
  Array.init (Dag.n dag) (fun i -> Task.candidates (Dag.task dag i) ~max_np:(bound_of i))

let aggressive_prepared algo (env : Env.t) dag =
  let order = Bottom_level.order Bottom_level.BL_CPAR env dag in
  let bounds =
    match algo with
    | DL_BD_ALL -> Array.make (Dag.n dag) env.p
    | DL_BD_CPA -> Allocation.allocate ~p:env.p dag
    | DL_BD_CPAR -> Allocation.allocate ~p:env.q dag
  in
  let cands = candidate_tables dag ~bound_of:(fun i -> max 1 bounds.(i)) in
  fun ~deadline ->
    backward ~order env dag ~deadline ~place:(fun cal ~k:_ ~i ~dl ->
        place_latest cal (Dag.task dag i) ~dl ~cands:cands.(i))

let aggressive algo env dag ~deadline = aggressive_prepared algo env dag ~deadline

let conservative_prepared ?(bounded_fallback = false) ?spec algo (env : Env.t) dag =
  let order = Bottom_level.order Bottom_level.BL_CPAR env dag in
  let ref_q = match algo with DL_RC_CPA -> env.p | DL_RC_CPAR -> env.q in
  let ref_allocs = Allocation.allocate ~p:ref_q dag in
  (* All probes of a λ-sweep / tightest search place tasks in the same
     backward order, so the reference starts they consult are the same
     order-prefix schedules: memoize them across probes. *)
  let refs = Mapping.prefix_references dag ~allocs:ref_allocs ~p:ref_q ~order in
  (* The memo fills lazily in decreasing position order; a speculative
     tightest search runs probes on worker domains, so force it
     read-only up front. *)
  if spec <> None && Dag.n dag > 0 then ignore (Mapping.reference_start refs 0);
  let cons_cands = candidate_tables dag ~bound_of:(fun _ -> env.p) in
  let fb_cands =
    if bounded_fallback then begin
      let fallback_bounds = Allocation.allocate ~p:env.q dag in
      candidate_tables dag ~bound_of:(fun i -> max 1 fallback_bounds.(i))
    end
    else cons_cands
  in
  fun ~lambda ~deadline ->
    if lambda < 0. || lambda > 1. then invalid_arg "Deadline.resource_conservative: lambda";
    backward ~order env dag ~deadline ~place:(fun cal ~k ~i ~dl ->
        let reference = Mapping.reference_start refs k in
        let threshold =
          reference + int_of_float (Float.round (lambda *. float_of_int (dl - reference)))
        in
        let jctx =
          if Mp_forensics.Journal.enabled () then Some (reference, lambda) else None
        in
        match place_conservative ?jctx cal (Dag.task dag i) ~dl ~threshold ~cands:cons_cands.(i) with
        | Some slot -> Some slot
        | None -> place_latest cal (Dag.task dag i) ~dl ~cands:fb_cands.(i))

let resource_conservative ?(lambda = 0.) ?bounded_fallback algo env dag ~deadline =
  conservative_prepared ?bounded_fallback algo env dag ~lambda ~deadline

let hybrid_prepared ?bounded_fallback ?(step = 0.05) ?spec env dag =
  if step <= 0. then invalid_arg "Deadline.hybrid: step <= 0";
  let prepared = conservative_prepared ?bounded_fallback ?spec DL_RC_CPAR env dag in
  (* λ_k = min 1 (k·step), k = 0..n_steps — an integer grid, not repeated
     float accumulation, so the probed values carry no accumulated
     rounding.  n_steps is the first k with k·step >= 1 (the old
     accumulating loop probed the same count: its 1e-9 guard admitted
     the accumulated value just above 1, clamped to 1). *)
  let n_steps = int_of_float (ceil (1. /. step -. 1e-9)) in
  let lambda_of k = Float.min 1. (float_of_int k *. step) in
  fun ~deadline ->
    let rec sweep k =
      if k > n_steps then None
      else
        let l = lambda_of k in
        match prepared ~lambda:l ~deadline with
        | Some sched -> Some (sched, l)
        | None -> sweep (k + 1)
    in
    sweep 0

let hybrid ?bounded_fallback ?step env dag ~deadline =
  hybrid_prepared ?bounded_fallback ?step env dag ~deadline

let lower_bound (env : Env.t) dag =
  let weights = Array.map (fun tk -> Task.exec_time_f tk env.p) (Dag.tasks dag) in
  int_of_float (ceil (Analysis.cp_length dag ~weights))

let bracket_attempts = 22

let tightest ?(resolution = 60) ?spec algo env dag =
  if resolution < 1 then invalid_arg "Deadline.tightest: resolution < 1";
  let lo = max 1 (lower_bound env dag) in
  let probe ~deadline =
    Mp_obs.Counter.incr c_probes;
    algo ~deadline
  in
  (* Find a feasible upper bracket by doubling. *)
  let bracket_seq () =
    let rec bracket hi attempts =
      if attempts = 0 then None
      else begin
        match probe ~deadline:hi with
        | Some sched -> Some (hi, sched)
        | None -> bracket (hi * 2) (attempts - 1)
      end
    in
    bracket lo bracket_attempts
  in
  (* The doubling candidates are a fixed list: fan them in fixed-width
     waves; the smallest-index success is the bracket the sequential
     doubling finds. *)
  let bracket_spec sp =
    let cands = Array.init bracket_attempts (fun j -> lo * (1 lsl j)) in
    let rec waves j0 =
      if j0 >= bracket_attempts then None
      else begin
        let w = min Speculate.wave_width (bracket_attempts - j0) in
        let thunks = Array.init w (fun j () -> probe ~deadline:cands.(j0 + j)) in
        match Speculate.first_some sp thunks with
        | Some (j, sched) -> Some (cands.(j0 + j), sched)
        | None -> waves (j0 + w)
      end
    in
    waves 0
  in
  let search_seq lo hi best =
    let rec search lo hi best =
      if hi - lo <= resolution then best
      else begin
        let mid = lo + ((hi - lo) / 2) in
        match probe ~deadline:mid with
        | Some sched -> search lo mid (mid, sched)
        | None -> search mid hi best
      end
    in
    search lo hi best
  in
  (* Speculative bisection: one wave evaluates the current midpoint and
     the midpoints of both possible next intervals, then consumes the
     branch the current probe selects — two bisection levels per wave
     for three probes, the probed deadlines and the result exactly those
     of the sequential search (the third probe is wasted). *)
  let search_spec sp lo hi best =
    let rec search lo hi best =
      if hi - lo <= resolution then best
      else begin
        let mid = lo + ((hi - lo) / 2) in
        let mid_s = lo + ((mid - lo) / 2) in
        let mid_f = mid + ((hi - mid) / 2) in
        Speculate.wave_probes 3;
        let results =
          Speculate.map_array sp
            [|
              (fun () -> probe ~deadline:mid);
              (fun () -> probe ~deadline:mid_s);
              (fun () -> probe ~deadline:mid_f);
            |]
        in
        Speculate.wave_wasted 1;
        match results.(0) with
        | Some sched ->
            if mid - lo <= resolution then (mid, sched)
            else begin
              match results.(1) with
              | Some sched' -> search lo mid_s (mid_s, sched')
              | None -> search mid_s mid (mid, sched)
            end
        | None ->
            if hi - mid <= resolution then best
            else begin
              match results.(2) with
              | Some sched' -> search mid mid_f (mid_f, sched')
              | None -> search mid_f hi best
            end
      end
    in
    search lo hi best
  in
  Speculate.lend spec
    ~sequential:(fun () ->
      match bracket_seq () with
      | None -> None
      | Some (hi0, sched0) -> Some (search_seq lo hi0 (hi0, sched0)))
    ~speculative:(fun sp ->
      match bracket_spec sp with
      | None -> None
      | Some (hi0, sched0) -> Some (search_spec sp lo hi0 (hi0, sched0)))

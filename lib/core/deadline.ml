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

(* Latest-start placement over every site, among each site's
   distinct-duration processor counts up to a per-task bound: the
   aggressive move, also used as fallback by the conservative algorithms.
   The best fit so far is ⟨bsite, bs, bf, bnp⟩; [bs = min_int] until there
   is one. *)
let place_latest cals task ~dl ~(cands : Task.candidates array) =
  let journal = Mp_forensics.Journal.enabled () in
  if journal then begin
    (* one entry for every site: their bounds and candidates summed *)
    let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cands in
    Mp_forensics.Journal.begin_placement Mp_forensics.Journal.Backward ~task:task.Task.id
      ~anchor:dl ~bound:(sum (fun c -> c.Task.bound))
      ~evaluated:(sum (fun c -> Array.length c.Task.nps))
  end;
  let rec sites site bsite bs bf bnp =
    if site = Array.length cals then (bsite, bs, bf, bnp)
    else begin
      let cal = cals.(site) and { Task.nps; durs; _ } = cands.(site) in
      (* Candidates by descending processor count (ascending duration):
         once [dl - dur] falls below the best start found, no remaining
         (longer) candidate of this site can start later, so the site's
         scan stops.  On loose deadlines the very first candidate ends
         the loop. *)
      let rec go c bsite bs bf bnp =
        if c < 0 then sites (site + 1) bsite bs bf bnp
        else
          let np = nps.(c) and dur = durs.(c) in
          if dl - dur < bs then begin
            Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.Early_cut;
            sites (site + 1) bsite bs bf bnp
          end
          else
            (* A later candidate must strictly win, so a fit starting
               before [bs] is discarded below: the query may stop the
               moment its window drops below [bs], which changes no
               placement, only how soon a losing scan gives up.  With
               the journal on, keep the unbounded query so the recorded
               candidates (starts of beaten fits) stay exactly as before;
               the extra work is placement-identical by the same
               argument. *)
            let earliest = if journal then 0 else Int.max 0 bs in
            match Calendar.latest_fit cal ~earliest ~finish_by:dl ~procs:np ~dur with
            | None ->
                Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.No_fit;
                go (c - 1) bsite bs bf bnp
            | Some s as fit ->
                let better = s > bs || (s = bs && np < bnp) in
                Mp_forensics.Journal.cand ~procs:np ~dur ~fit
                  (if better then Mp_forensics.Journal.Leading else Mp_forensics.Journal.Beaten);
                if better then go (c - 1) site s (s + dur) np else go (c - 1) bsite bs bf bnp
      in
      go (Array.length nps - 1) bsite bs bf bnp
    end
  in
  let ((site, s, fin, np) as slot) = sites 0 (-1) min_int 0 max_int in
  if site < 0 then begin
    Mp_forensics.Journal.end_placement_failed ();
    None
  end
  else begin
    Mp_forensics.Journal.end_placement ~procs:np ~start:s ~finish:fin;
    Some slot
  end

(* Fewest processors whose earliest feasible start clears [threshold] while
   still finishing by [dl], on one calendar; the slot comes back in
   {!place_latest}'s ⟨site, start, finish, procs⟩ shape, site 0.  [jctx]
   carries (reference, lambda) for the decision journal only — never
   consulted by the placement itself. *)
let place_conservative ?jctx cal task ~dl ~threshold ~(cands : Task.candidates) =
  let threshold = Int.max 0 threshold in
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
        match Calendar.earliest_fit ~limit cal ~after:threshold ~procs:np ~dur with
        | Some s when s + dur <= dl ->
            if journal then begin
              Mp_forensics.Journal.cand ~procs:np ~dur ~fit:(Some s)
                Mp_forensics.Journal.Leading;
              Mp_forensics.Journal.end_placement ~procs:np ~start:s ~finish:(s + dur)
            end;
            Some (0, s, s + dur, np)
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
   calendar (the one site of [cals]) and the task's completion deadline. *)
let backward ~order (env : Env.t) dag ~deadline ~place =
  Mp_obs.Span.wrap sp_backward @@ fun () ->
  let nb = Dag.n dag in
  let slots = Array.make nb ({ start = 0; finish = 0; procs = 0 } : Schedule.slot) in
  let cals = [| env.calendar |] in
  let rec go k =
    if k < 0 then Some { Schedule.slots }
    else begin
      let i = order.(k) in
      let dl =
        Array.fold_left (fun acc j -> Int.min acc slots.(j).Schedule.start) deadline (Dag.succs dag i)
      in
      Mp_obs.Span.enter sp_place;
      let slot = place cals ~k ~i ~dl in
      Mp_obs.Span.exit sp_place;
      match slot with
      | None -> None
      | Some (_, s, fin, np) ->
          Mp_obs.Counter.incr c_tasks_placed;
          cals.(0) <- Calendar.reserve cals.(0) (Reservation.make ~start:s ~finish:fin ~procs:np);
          slots.(i) <- { start = s; finish = fin; procs = np };
          go (k - 1)
    end
  in
  go (nb - 1)

(* The allocation-dependent data (bottom-level order, CPA allocations for
   bounds and reference schedules) only depends on (env, dag), never on
   the deadline; each algorithm computes it once per partial application
   at [env dag] so that deadline sweeps — the λ search and the
   tightest-deadline binary search — pay for it once instead of per
   probe.  Within one preparation, order, bounds, reference and fallback
   share one {!Allocation.per_procs} table, so each processor count's CPA
   allocation runs once. *)

(* One candidate table per task, for the one site, computed when the
   prepared closure is built and shared by every deadline probe (and every
   placement of every probe) thereafter. *)
let candidate_tables dag ~bound_of =
  Array.init (Dag.n dag) (fun i -> [| Task.candidates (Dag.task dag i) ~max_np:(bound_of i) |])

let aggressive algo (env : Env.t) dag =
  let cpa = Allocation.per_procs dag in
  let order = Bottom_level.order ~cpa Bottom_level.BL_CPAR env dag in
  let bounds =
    match algo with
    | DL_BD_ALL -> Array.make (Dag.n dag) env.p
    | DL_BD_CPA -> cpa env.p
    | DL_BD_CPAR -> cpa env.q
  in
  let cands = candidate_tables dag ~bound_of:(fun i -> Int.max 1 bounds.(i)) in
  fun ~deadline ->
    backward ~order env dag ~deadline ~place:(fun cals ~k:_ ~i ~dl ->
        place_latest cals (Dag.task dag i) ~dl ~cands:cands.(i))

let resource_conservative ?(bounded_fallback = false) algo (env : Env.t) dag =
  let cpa = Allocation.per_procs dag in
  let order = Bottom_level.order ~cpa Bottom_level.BL_CPAR env dag in
  let ref_q = match algo with DL_RC_CPA -> env.p | DL_RC_CPAR -> env.q in
  let ref_allocs = cpa ref_q in
  (* All probes of a λ-sweep / tightest search place tasks in the same
     backward order, so the reference starts they consult are the same
     order-prefix schedules: memoize them across probes. *)
  let refs = Mapping.prefix_references dag ~allocs:ref_allocs ~p:ref_q ~order in
  let cons_cands = candidate_tables dag ~bound_of:(fun _ -> env.p) in
  let fb_cands =
    if bounded_fallback then begin
      let fallback_bounds = cpa env.q in
      candidate_tables dag ~bound_of:(fun i -> Int.max 1 fallback_bounds.(i))
    end
    else cons_cands
  in
  fun ~lambda ~deadline ->
    (* written so that a NaN lambda fails too *)
    if not (lambda >= 0. && lambda <= 1.) then
      invalid_arg "Deadline.resource_conservative: lambda";
    backward ~order env dag ~deadline ~place:(fun cals ~k ~i ~dl ->
        let reference = Mapping.reference_start refs k in
        let threshold =
          reference + int_of_float (Float.round (lambda *. float_of_int (dl - reference)))
        in
        let jctx =
          if Mp_forensics.Journal.enabled () then Some (reference, lambda) else None
        in
        match
          place_conservative ?jctx cals.(0) (Dag.task dag i) ~dl ~threshold
            ~cands:cons_cands.(i).(0)
        with
        | Some slot -> Some slot
        | None -> place_latest cals (Dag.task dag i) ~dl ~cands:fb_cands.(i))

(* λ_k = min 1 (k·step), k = 0..n_steps — an integer grid, not repeated
   float accumulation, so the probed values carry no accumulated
   rounding.  n_steps is the first k with k·step >= 1. *)
let step = 0.05
let n_steps = int_of_float (ceil ((1. /. step) -. 1e-9))
let lambda_of k = Float.min 1. (float_of_int k *. step)

let hybrid ?bounded_fallback env dag =
  let prepared = resource_conservative ?bounded_fallback DL_RC_CPAR env dag in
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

let lower_bound (env : Env.t) dag =
  let weights = Array.map (fun tk -> Task.exec_time_f tk env.p) (Dag.tasks dag) in
  int_of_float (ceil (Analysis.cp_length dag ~weights))

let bracket_attempts = 22

let search ?(resolution = 60) ~lo probe =
  if resolution < 1 then invalid_arg "Deadline.search: resolution < 1";
  let lo = Int.max 1 lo in
  let probe ~deadline =
    Mp_obs.Counter.incr c_probes;
    probe ~deadline
  in
  (* Find a feasible upper bracket by doubling from [lo]; [missed] keeps
     the deadlines it found infeasible. *)
  let rec bracket hi attempts missed =
    if attempts = 0 then None
    else
      match probe ~deadline:hi with
      | Some x -> Some (hi, x, missed)
      | None -> bracket (hi * 2) (attempts - 1) (hi :: missed)
  in
  match bracket lo bracket_attempts [] with
  | None -> None
  | Some (hi, x, missed) ->
      (* Bisect between [lo] and the bracket.  A midpoint can land on a
         deadline the bracket already missed; its verdict is known, so
         [probe] is not run again. *)
      let rec bisect lo hi best =
        if hi - lo <= resolution then best
        else
          let mid = lo + ((hi - lo) / 2) in
          match if List.mem mid missed then None else probe ~deadline:mid with
          | Some x -> bisect lo mid (mid, x)
          | None -> bisect mid hi best
      in
      Some (bisect lo hi (hi, x))

let tightest ?spec:_ algo env dag = search ~lo:(lower_bound env dag) algo

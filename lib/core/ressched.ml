module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Schedule = Mp_cpa.Schedule

let name ~bl ~bd = Bottom_level.name bl ^ "_" ^ Bound.name bd

let c_tasks_placed = Mp_obs.Counter.make "ressched.tasks_placed"
let c_early_cuts = Mp_obs.Counter.make "ressched.early_cuts"
let sp_place = Mp_obs.Span.make "ressched.place"
let sp_schedule = Mp_obs.Span.make "ressched.schedule"

(* Earliest-completion placement of one task: completion time is not
   monotone in the processor count because of reservation holes, so every
   {e distinct} duration is examined (the O(R·N) inner loop of the paper's
   complexity analysis; counts inside an Amdahl plateau are dominated by
   the plateau's first count and skipped, see {!Task.alloc_candidates}). *)
let place ?(kind = Mp_forensics.Journal.Forward) cal task ~ready ~(cands : Task.candidates) =
  Mp_obs.Counter.incr c_tasks_placed;
  Mp_obs.Span.enter sp_place;
  (* Candidates are visited by descending processor count (ascending
     duration): once [ready + dur] exceeds the best completion found, no
     remaining (longer) candidate can win, completion being at least
     [ready + dur] — so the scan stops, which on lightly loaded calendars
     reduces the inner loop to a handful of fit queries. *)
  let nps = cands.Task.nps and durs = cands.Task.durs in
  let journal = Mp_forensics.Journal.enabled () in
  if journal then
    Mp_forensics.Journal.begin_placement kind ~task:task.Task.id ~anchor:ready
      ~bound:cands.Task.bound ~evaluated:(Array.length nps);
  let rec go best c =
    if c < 0 then best
    else
      let np = nps.(c) and dur = durs.(c) in
      match best with
      | Some (_, bf, _) when ready + dur > bf ->
          Mp_obs.Counter.incr c_early_cuts;
          Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.Early_cut;
          best
      | _ -> (
          (* A fit completing after the best completion is discarded below
             (processor counts only decrease along the scan, so an equal
             completion always wins its tie): the query may give up once
             every remaining start exceeds [bf - dur].  Unbounded with the
             journal on, so recorded beaten fits stay exactly as before. *)
          let limit =
            if journal then max_int
            else match best with None -> max_int | Some (_, bf, _) -> bf - dur
          in
          match Calendar.earliest_fit ~limit cal ~after:ready ~procs:np ~dur with
          | None ->
              Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.No_fit;
              go best (c - 1)
          | Some s as fit ->
              let fin = s + dur in
              let better =
                match best with
                | None -> true
                | Some (_, bf, bnp) -> fin < bf || (fin = bf && np < bnp)
              in
              Mp_forensics.Journal.cand ~procs:np ~dur ~fit
                (if better then Mp_forensics.Journal.Leading else Mp_forensics.Journal.Beaten);
              go (if better then Some ((s, fin, np), fin, np) else best) (c - 1))
  in
  let r =
    match go None (Array.length nps - 1) with
    | Some ((s, fin, np), _, _) ->
        Mp_forensics.Journal.end_placement ~procs:np ~start:s ~finish:fin;
        (s, fin, np)
    | None -> assert false (* np = 1 always fits eventually *)
  in
  Mp_obs.Span.exit sp_place;
  r

let schedule ?(bl = Bottom_level.BL_CPAR) ?(bd = Bound.BD_CPAR) ?(now = 0) (env : Env.t) dag =
  if now < 0 then invalid_arg "Ressched.schedule: now < 0";
  Mp_obs.Span.wrap sp_schedule @@ fun () ->
  let nb = Dag.n dag in
  (* The default BL_CPAR + BD_CPAR orders and bounds by the same
     allocation: run CPA once per processor count. *)
  let cpa = Mp_cpa.Allocation.per_procs dag in
  let order = Bottom_level.order ~cpa bl env dag in
  let bounds = Bound.bounds ~cpa bd env dag in
  let slots = Array.make nb ({ start = 0; finish = 0; procs = 0 } : Schedule.slot) in
  let cal = ref env.calendar in
  Array.iter
    (fun i ->
      let ready =
        Array.fold_left (fun acc j -> Int.max acc slots.(j).Schedule.finish) now (Dag.preds dag i)
      in
      let cands = Task.candidates (Dag.task dag i) ~max_np:(Int.max 1 bounds.(i)) in
      let s, fin, np = place !cal (Dag.task dag i) ~ready ~cands in
      cal := Calendar.reserve !cal (Reservation.make ~start:s ~finish:fin ~procs:np);
      slots.(i) <- { start = s; finish = fin; procs = np })
    order;
  { Schedule.slots }

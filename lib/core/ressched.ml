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

(* Earliest-completion placement of one task over every site: completion
   time is not monotone in the processor count because of reservation
   holes, so every {e distinct} duration is examined (the O(R·N) inner
   loop of the paper's complexity analysis; counts inside an Amdahl
   plateau are dominated by the plateau's first count and skipped, see
   {!Task.alloc_candidates}).  The best fit so far is ⟨bsite, bs, bf,
   bnp⟩; [bf = max_int] until there is one. *)
let place ?(kind = Mp_forensics.Journal.Forward) cals task ~ready ~(cands : Task.candidates array) =
  Mp_obs.Counter.incr c_tasks_placed;
  Mp_obs.Span.enter sp_place;
  let journal = Mp_forensics.Journal.enabled () in
  if journal then begin
    (* one entry for every site: their bounds and candidates summed *)
    let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cands in
    Mp_forensics.Journal.begin_placement kind ~task:task.Task.id ~anchor:ready
      ~bound:(sum (fun c -> c.Task.bound))
      ~evaluated:(sum (fun c -> Array.length c.Task.nps))
  end;
  let rec sites site bsite bs bf bnp =
    if site = Array.length cals then (bsite, bs, bf, bnp)
    else begin
      let cal = cals.(site) and { Task.nps; durs; _ } = cands.(site) in
      (* Candidates are visited by descending processor count (ascending
         duration): once [ready + dur] exceeds the best completion found,
         no remaining (longer) candidate of this site can win, completion
         being at least [ready + dur] — so the site's scan stops, which on
         lightly loaded calendars reduces the inner loop to a handful of
         fit queries. *)
      let rec go c bsite bs bf bnp =
        if c < 0 then sites (site + 1) bsite bs bf bnp
        else
          let np = nps.(c) and dur = durs.(c) in
          if ready + dur > bf then begin
            Mp_obs.Counter.incr c_early_cuts;
            Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.Early_cut;
            sites (site + 1) bsite bs bf bnp
          end
          else
            (* A later candidate must strictly win, so a fit completing
               after [bf] is discarded below: the query may give up once
               every remaining start exceeds [bf - dur] (the calendar's
               own bound while [bf = max_int]).  Unbounded with the
               journal on, so recorded beaten fits stay exactly as
               before. *)
            let limit = if journal then max_int else bf - dur in
            match Calendar.earliest_fit ~limit cal ~after:ready ~procs:np ~dur with
            | None ->
                Mp_forensics.Journal.cand ~procs:np ~dur ~fit:None Mp_forensics.Journal.No_fit;
                go (c - 1) bsite bs bf bnp
            | Some s as fit ->
                let fin = s + dur in
                let better = fin < bf || (fin = bf && np < bnp) in
                Mp_forensics.Journal.cand ~procs:np ~dur ~fit
                  (if better then Mp_forensics.Journal.Leading else Mp_forensics.Journal.Beaten);
                if better then go (c - 1) site s fin np else go (c - 1) bsite bs bf bnp
      in
      go (Array.length nps - 1) bsite bs bf bnp
    end
  in
  let ((site, s, fin, np) as r) = sites 0 (-1) 0 max_int max_int in
  (* np = 1 always fits eventually *)
  assert (site >= 0);
  Mp_forensics.Journal.end_placement ~procs:np ~start:s ~finish:fin;
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
  let cals = [| env.calendar |] in
  Array.iter
    (fun i ->
      let ready =
        Array.fold_left (fun acc j -> Int.max acc slots.(j).Schedule.finish) now (Dag.preds dag i)
      in
      let cands = [| Task.candidates (Dag.task dag i) ~max_np:(Int.max 1 bounds.(i)) |] in
      let _, s, fin, np = place cals (Dag.task dag i) ~ready ~cands in
      cals.(0) <- Calendar.reserve cals.(0) (Reservation.make ~start:s ~finish:fin ~procs:np);
      slots.(i) <- { start = s; finish = fin; procs = np })
    order;
  { Schedule.slots }

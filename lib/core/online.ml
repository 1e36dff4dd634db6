module Dag = Mp_dag.Dag
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Schedule = Mp_cpa.Schedule

let sp_schedule = Mp_obs.Span.make "online.schedule"
let c_granted = Mp_obs.Counter.make "online.reservations_granted"

let schedule (env : Env.t) ~events dag =
  Mp_obs.Span.wrap sp_schedule @@ fun () ->
  let cpa = Mp_cpa.Allocation.per_procs dag in
  let order = Bottom_level.order ~cpa BL_CPAR env dag in
  let bounds = Bound.bounds ~cpa BD_CPAR env dag in
  let cands =
    Array.init (Dag.n dag) (fun i ->
        Mp_dag.Task.candidates (Dag.task dag i) ~max_np:(max 1 bounds.(i)))
  in
  let slots = Array.make (Dag.n dag) ({ start = 0; finish = 0; procs = 0 } : Schedule.slot) in
  (* Competitor grants and task placements interleave strictly forward, so
     the whole run fits one calendar transaction. *)
  let cal = Calendar.Txn.start env.calendar in
  let granted = ref [] in
  Array.iteri
    (fun k i ->
      if k < Array.length events then
        List.iter
          (fun (ev : Mp_service.Request.t) ->
            match ev with
            | Reserve { start; dur; procs } when dur >= 1 && procs >= 1 ->
                let r = Reservation.make ~start ~finish:(start + dur) ~procs in
                if Calendar.Txn.reserve_opt cal r then begin
                  Mp_obs.Counter.incr c_granted;
                  Mp_forensics.Journal.grant ~start:r.start ~finish:r.finish ~procs:r.procs
                    ~granted:true;
                  granted := r :: !granted
                end
                else
                  (* the competitor lost the race for that slot *)
                  Mp_forensics.Journal.grant ~start:r.start ~finish:r.finish ~procs:r.procs
                    ~granted:false
            | Reserve { start; dur; procs } ->
                (* nonsensical request: rejected, as Engine would *)
                Mp_forensics.Journal.grant ~start ~finish:(start + dur) ~procs ~granted:false
            | Probe _ | Cancel _ | Submit_dag _ | Explain _ | Stats _ ->
                (* queries don't perturb the calendar, and competitor
                   cancellations / DAG submissions are not modelled here *)
                ())
          events.(k);
      let ready =
        Array.fold_left (fun acc j -> max acc slots.(j).Schedule.finish) 0 (Dag.preds dag i)
      in
      let s, fin, np =
        Ressched.place ~kind:Mp_forensics.Journal.Online_forward cal (Dag.task dag i)
          ~ready ~cands:cands.(i)
      in
      Calendar.Txn.reserve cal (Reservation.make ~start:s ~finish:fin ~procs:np);
      slots.(i) <- { start = s; finish = fin; procs = np })
    order;
  ({ Schedule.slots }, List.rev !granted)

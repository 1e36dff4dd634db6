module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Engine = Mp_service.Engine
module Request = Mp_service.Request
module Response = Mp_service.Response
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Schedule = Mp_cpa.Schedule
module Allocation = Mp_cpa.Allocation
module Mapping = Mp_cpa.Mapping

(* The scheduler's side of the trial-and-error protocol: site 0 of a
   single-site engine, plus the count of [Reserve] requests made.  The
   count charges requests, not cancellations — the per-task budget is
   defined in requests. *)
type client = { engine : Engine.t; mutable requests : int }

let request c ~start ~dur ~procs =
  c.requests <- c.requests + 1;
  Engine.handle c.engine ~site:0 (Request.Reserve { start; dur; procs })

let cancel c (r : Reservation.t) =
  let cancel = Request.Cancel { start = r.start; finish = r.finish; procs = r.procs } in
  match Engine.handle c.engine ~site:0 cancel with
  | Response.Cancelled -> ()
  | resp -> invalid_arg ("Blind.schedule: cancel answered " ^ Response.to_string resp)

(* Survey one candidate processor count: request at [ready]; on rejection,
   follow the suggestion once.  Returns the granted reservation (so the
   caller can keep it or cancel it) and the number of requests spent. *)
let survey c task ~ready np =
  let dur = Task.exec_time task np in
  match request c ~start:ready ~dur ~procs:np with
  | Response.Granted -> (Some (Reservation.make ~start:ready ~finish:(ready + dur) ~procs:np), 1)
  | Response.Rejected None -> (None, 1)
  | Response.Rejected (Some s) -> (
      match request c ~start:s ~dur ~procs:np with
      | Response.Granted -> (Some (Reservation.make ~start:s ~finish:(s + dur) ~procs:np), 2)
      | _ ->
          (* cannot happen in a static system: the suggestion was just
             computed as feasible; kept total for robustness *)
          (None, 2))
  | _ -> (* a [Reserve] only answers Granted/Rejected *) (None, 1)

let place c task ~ready ~(cands : Task.candidates) ~budget =
  (* Candidates largest-first: bigger allocations have shorter durations
     and usually earlier completions, so they are worth surveying first
     when the budget is tight. *)
  let candidates = List.rev (Array.to_list cands.Task.nps) in
  let better (r : Reservation.t) = function
    | None -> true
    | Some (b : Reservation.t) ->
        r.finish < b.finish || (r.finish = b.finish && (r.procs < b.procs || (r.procs = b.procs && r.start < b.start)))
  in
  (* Each trial grant is cancelled right away so that later candidates are
     evaluated against the same (unperturbed) system state; the winner is
     re-requested at the end. *)
  let rec go best spent = function
    | [] -> best
    | _ when spent >= budget && best <> None -> best
    | np :: rest -> (
        (* Duration-based early cut (needs no calendar knowledge): any
           remaining candidate has a longer duration, so its completion is
           at least ready + dur — once that exceeds the best completion
           found, stop surveying.  This is the same cut the omniscient
           scheduler uses, so a sufficient budget recovers its schedule
           exactly. *)
        let dur = Task.exec_time task np in
        match best with
        | Some (b : Reservation.t) when ready + dur > b.finish -> best
        | _ ->
            let r, cost = survey c task ~ready np in
            let best =
              match r with
              | None -> best
              | Some r ->
                  cancel c r;
                  if better r best then Some r else best
            in
            go best (spent + cost) rest)
  in
  match go None 0 candidates with
  | Some r -> (
      match request c ~start:r.Reservation.start ~dur:(Reservation.duration r) ~procs:r.Reservation.procs with
      | Response.Granted -> r
      | _ -> assert false (* static system: the trial was grantable *))
  | None ->
      (* No candidate was placeable within the budget's surveys — chase the
         1-processor suggestion chain until granted (always terminates:
         the final segment of any calendar has free processors). *)
      let dur = Task.exec_time task 1 in
      let rec chase start =
        match request c ~start ~dur ~procs:1 with
        | Response.Granted -> Reservation.make ~start ~finish:(start + dur) ~procs:1
        | Response.Rejected (Some s) -> chase s
        | _ -> invalid_arg "Blind.schedule: cluster has no processors"
      in
      chase ready

let schedule ?(budget = 16) ?(bl = Bottom_level.BL_CPAR) ~q ~engine dag =
  if budget < 1 then invalid_arg "Blind.schedule: budget < 1";
  let c = { engine; requests = 0 } in
  let p = Calendar.procs (Engine.calendar engine ~site:0) in
  let q = max 1 (min p q) in
  (* Bounds and ordering weights come from the scheduler's own q estimate:
     no calendar knowledge involved. *)
  let bounds = Allocation.allocate ~p:q dag in
  let weights =
    match bl with
    | Bottom_level.BL_1 -> Array.map (fun tk -> Task.exec_time_f tk 1) (Dag.tasks dag)
    | Bottom_level.BL_ALL -> Array.map (fun tk -> Task.exec_time_f tk p) (Dag.tasks dag)
    | Bottom_level.BL_CPA -> Allocation.weights dag ~allocs:(Allocation.allocate ~p dag)
    | Bottom_level.BL_CPAR -> Allocation.weights dag ~allocs:bounds
  in
  let order = Mapping.bl_order dag ~weights in
  let cands =
    Array.init (Dag.n dag) (fun i ->
        Task.candidates (Dag.task dag i) ~max_np:(max 1 bounds.(i)))
  in
  let slots = Array.make (Dag.n dag) ({ start = 0; finish = 0; procs = 0 } : Schedule.slot) in
  Array.iter
    (fun i ->
      let ready =
        Array.fold_left (fun acc j -> max acc slots.(j).Schedule.finish) 0 (Dag.preds dag i)
      in
      let r = place c (Dag.task dag i) ~ready ~cands:cands.(i) ~budget in
      slots.(i) <- { start = r.Reservation.start; finish = r.Reservation.finish; procs = r.Reservation.procs })
    order;
  ({ Schedule.slots }, c.requests)

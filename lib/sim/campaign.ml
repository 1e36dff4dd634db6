module Calendar = Mp_platform.Calendar
module Schedule = Mp_cpa.Schedule
module Env = Mp_core.Env
module Ressched = Mp_core.Ressched

type arrival = { at : int; dag : Mp_dag.Dag.t }

type app_result = {
  arrival : int;
  schedule : Schedule.t;
  turnaround : int;
  cpu_hours : float;
}

type t = {
  apps : app_result list;
  final_calendar : Calendar.t;
  makespan : int;
  total_cpu_hours : float;
}

let day = 86_400

let run ?bl ?bd (env : Env.t) arrivals =
  List.iter (fun a -> if a.at < 0 then invalid_arg "Campaign.run: negative arrival") arrivals;
  let arrivals =
    List.stable_sort (fun a b -> compare a.at b.at) arrivals
  in
  let cal = ref env.calendar in
  let apps =
    List.map
      (fun { at; dag } ->
        let q = Calendar.average_available !cal ~from_:at ~until:(at + (7 * day)) in
        let app_env = Env.make ~calendar:!cal ~q in
        let schedule = Ressched.schedule ?bl ?bd ~now:at app_env dag in
        cal := List.fold_left Calendar.reserve !cal (Schedule.reservations schedule);
        {
          arrival = at;
          schedule;
          turnaround = Schedule.turnaround schedule - at;
          cpu_hours = Schedule.cpu_hours schedule;
        })
      arrivals
  in
  {
    apps;
    final_calendar = !cal;
    makespan = List.fold_left (fun acc a -> max acc (Schedule.turnaround a.schedule)) 0 apps;
    total_cpu_hours = List.fold_left (fun acc a -> acc +. a.cpu_hours) 0. apps;
  }

(* Each campaign threads its own calendar and is inherently sequential,
   but independent campaigns (different tenants, seeds, or what-if
   calendars) fan out cleanly: one campaign per work item, results merged
   in input order. *)
let run_many ?pool ?jobs ?bl ?bd campaigns =
  let go p = Mp_prelude.Pool.map p (fun (env, arrivals) -> run ?bl ?bd env arrivals) campaigns in
  match pool with Some p -> go p | None -> Mp_prelude.Pool.with_pool ?jobs go

(* Deadline-driven campaign (problem RESSCHEDDL, Section 5).

   An overnight forecasting workflow must complete before 07:00, i.e.
   within a hard deadline.  We

     1. find, for each deadline algorithm, the tightest deadline it could
        promise on this cluster, and
     2. given the actual (loose) 07:00 deadline, show how many CPU-hours
        the resource-conservative algorithms save compared to the
        aggressive ones — the paper's Table 6/7 story.

   Run with:  dune exec examples/deadline_campaign.exe *)

module Rng = Mp_prelude.Rng
module Dag_gen = Mp_dag.Dag_gen
module Grid5000 = Mp_workload.Grid5000
module Reservation_gen = Mp_workload.Reservation_gen
module Env = Mp_core.Env
module Algo = Mp_core.Algo
module Deadline = Mp_core.Deadline
module Schedule = Mp_cpa.Schedule

let () =
  let rng = Rng.create 7 in

  (* The forecast workflow: 40 moldable tasks, moderately wide. *)
  let dag = Dag_gen.generate rng { Dag_gen.default with n = 40; width = 0.4; alpha = 0.15 } in

  (* The cluster is a Grid'5000-style site with existing reservations. *)
  let g = Grid5000.generate (Rng.split rng) ~days:30 () in
  let at = Reservation_gen.random_instant rng g.jobs in
  let rg = Reservation_gen.extract rng Reservation_gen.Real ~procs:g.cpus ~at g.jobs in
  let env = Env.make ~calendar:(Reservation_gen.calendar rg) ~q:(Reservation_gen.historical_average rg) in
  Format.printf "Cluster: %d processors, %d known future reservations, q=%d@.@." env.p
    (List.length rg.future) env.q;

  (* 1. Tightest promise each algorithm can make. *)
  Format.printf "%-16s  %18s@." "algorithm" "tightest deadline";
  Format.printf "-------------------------------------@.";
  let tightest =
    List.map
      (fun (a : Algo.deadline) ->
        (* one preparation serves every probe of the search and the
           campaign run below *)
        let prepared = a.prepare env dag in
        let t = Deadline.tightest prepared env dag in
        (match t with
        | Some (k, _) -> Format.printf "%-16s  %15.2f h@." a.name (float_of_int k /. 3600.)
        | None -> Format.printf "%-16s  %18s@." a.name "(cannot commit)");
        (a, prepared, t))
      Algo.deadline_all
  in

  (* 2. The campaign's real deadline is loose: 07:00 tomorrow (say, twice
     the latest tightest deadline).  Aggressive algorithms burn CPU-hours
     anyway; resource-conservative ones shrink allocations. *)
  let latest =
    List.fold_left
      (fun acc (_, _, t) -> match t with Some (k, _) -> max acc k | None -> acc)
      1 tightest
  in
  let deadline = 2 * latest in
  Format.printf "@.Campaign deadline: %.2f h from now.@.@." (float_of_int deadline /. 3600.);
  Format.printf "%-16s  %10s  %14s@." "algorithm" "CPU-hours" "turn-around[h]";
  Format.printf "---------------------------------------------@.";
  List.iter
    (fun ((a : Algo.deadline), prepared, _) ->
      match prepared ~deadline with
      | Some sched ->
          (match Schedule.validate dag ~base:env.calendar ~deadline sched with
          | Ok () -> ()
          | Error msg -> failwith msg);
          Format.printf "%-16s  %10.1f  %14.2f@." a.name (Schedule.cpu_hours sched)
            (float_of_int (Schedule.turnaround sched) /. 3600.)
      | None -> Format.printf "%-16s  %10s@." a.name "missed!")
    tightest

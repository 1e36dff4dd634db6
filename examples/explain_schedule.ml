(* Schedule forensics from the library: journal one RESSCHED run, print
   the per-task decision story, analyze the resulting calendar, and
   write a Gantt SVG — the same machinery behind `mpres explain`.

   Run with:  dune exec examples/explain_schedule.exe
   (writes explain_schedule.svg next to the current directory) *)

module Task = Mp_dag.Task
module Dag = Mp_dag.Dag
module Reservation = Mp_platform.Reservation
module Calendar = Mp_platform.Calendar
module Env = Mp_core.Env
module Ressched = Mp_core.Ressched
module Schedule = Mp_cpa.Schedule
module Journal = Mp_forensics.Journal
module Analytics = Mp_forensics.Analytics
module Render = Mp_forensics.Render

let () =
  (* The quickstart workflow: prepare, three concurrent analyses, merge. *)
  let tasks =
    [|
      Task.make ~id:0 ~seq:1_800. ~alpha:0.05;
      Task.make ~id:1 ~seq:14_400. ~alpha:0.10;
      Task.make ~id:2 ~seq:10_800. ~alpha:0.05;
      Task.make ~id:3 ~seq:7_200. ~alpha:0.20;
      Task.make ~id:4 ~seq:3_600. ~alpha:0.15;
    |]
  in
  let dag = Dag.make tasks [ (0, 1); (0, 2); (0, 3); (1, 4); (2, 4); (3, 4) ] in
  let calendar =
    Calendar.of_reservations ~procs:32
      [
        Reservation.make ~start:3_600 ~finish:7_200 ~procs:16;
        Reservation.make ~start:36_000 ~finish:43_200 ~procs:32;
      ]
  in
  let env = Env.make ~calendar ~q:20. in

  (* Journal the run.  Journaling is record-only: the schedule is
     bit-identical to an un-journaled [Ressched.schedule env dag]. *)
  let sched, entries = Journal.record (fun () -> Ressched.schedule env dag) in

  (* 1. The decision story: every candidate each task considered, why it
     was rejected (no fit / beaten / early-cut), and the winning slot. *)
  print_string (Journal.story entries);

  (* 2. Calendar analytics over the occupied window: application slots
     and competing reservations together. *)
  let final_cal =
    List.fold_left Calendar.reserve calendar (Schedule.reservations sched)
  in
  let until = max 1 (Schedule.turnaround sched) in
  let a = Analytics.analyze final_cal ~from_:0 ~until in
  Format.printf "@.%a@." Analytics.pp a;

  (* 3. Gantt SVG: colored application slots over the grey competitors. *)
  let svg = Render.gantt_svg ~base:calendar ~slots:(Schedule.render_slots sched) in
  Out_channel.with_open_text "explain_schedule.svg" (fun oc ->
      Out_channel.output_string oc svg);
  print_endline "Gantt chart written to explain_schedule.svg"

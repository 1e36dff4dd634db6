module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Analysis = Mp_dag.Analysis

(* Consecutive non-improving allocation increments tolerated before the
   search stops. *)
let lookahead = 8

let allocate_and_schedule ~p dag =
  if p < 1 then invalid_arg "Icaslb: p < 1";
  let nb = Dag.n dag in
  let tasks = Dag.tasks dag in
  let allocs = Array.make nb 1 in
  let schedule_current () = Mapping.map dag ~allocs ~p in
  let best_sched = ref (schedule_current ()) in
  let best_allocs = ref (Array.copy allocs) in
  let best_mk = ref (Schedule.turnaround !best_sched) in
  (* Grow the allocation of the critical-path task with the largest
     relative execution-time gain; evaluate the true makespan after each
     increment and keep searching through up to [lookahead] non-improving
     steps. *)
  let rec step no_improve =
    if no_improve > lookahead then ()
    else begin
      let weights = Array.mapi (fun i tk -> Task.exec_time_f tk allocs.(i)) tasks in
      let bl = Analysis.bottom_levels dag ~weights in
      let tl = Analysis.top_levels dag ~weights in
      let t_cp = bl.(Dag.entry dag) in
      let eps = 1e-9 *. Float.max 1. t_cp in
      let candidate = ref None in
      for i = 0 to nb - 1 do
        if Float.abs (tl.(i) +. bl.(i) -. t_cp) <= eps && allocs.(i) < p then begin
          let gain = (weights.(i) -. Task.exec_time_f tasks.(i) (allocs.(i) + 1)) /. weights.(i) in
          if gain > 1e-9 then begin
            match !candidate with
            | Some (_, g) when g >= gain -> ()
            | _ -> candidate := Some (i, gain)
          end
        end
      done;
      match !candidate with
      | None -> () (* the critical path cannot be shortened further *)
      | Some (i, _) ->
          allocs.(i) <- allocs.(i) + 1;
          let sched = schedule_current () in
          let mk = Schedule.turnaround sched in
          if mk < !best_mk then begin
            best_mk := mk;
            best_sched := sched;
            best_allocs := Array.copy allocs;
            step 0
          end
          else step (no_improve + 1)
    end
  in
  step 0;
  (!best_allocs, !best_sched)

let schedule ~p dag = snd (allocate_and_schedule ~p dag)

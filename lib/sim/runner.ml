module Algo = Mp_core.Algo
module Deadline = Mp_core.Deadline
module Schedule = Mp_cpa.Schedule
module Pool = Mp_prelude.Pool

let sp_cell = Mp_obs.Span.make "runner.cell"

type ressched_result = {
  tat : Metrics.scenario_result;
  cpu_hours : Metrics.scenario_result;
}

type deadline_result = {
  tightest : Metrics.scenario_result;
  loose_cpu_hours : Metrics.scenario_result;
}

let check ~validate (inst : Instance.t) ?deadline sched =
  if validate then begin
    match
      Schedule.validate inst.dag ~base:inst.env.Mp_core.Env.calendar ?deadline sched
    with
    | Ok () -> ()
    | Error msg ->
        failwith (Printf.sprintf "invalid schedule (%s / %s): %s" inst.app_label inst.res_label msg)
  end

(* Cells are numbered instance-major: cell [ii * n_algos + ai].  Each cell
   reads only its instance's immutable environment and DAG and fills its
   own result slot, so the merged matrices are independent of worker
   count and scheduling order. *)

let ressched ?(validate = false) ~pool ~algos ~scenario (instances : Instance.t list) =
  let algos = Array.of_list algos in
  let instances = Array.of_list instances in
  let n_algos = Array.length algos in
  let n_inst = Array.length instances in
  let algo_names = Array.map (fun (a : Algo.ressched) -> a.name) algos in
  let cells = Array.init (n_inst * n_algos) Fun.id in
  let results =
    Pool.map_array pool
      (fun c ->
        Mp_obs.Span.wrap sp_cell @@ fun () ->
        let inst = instances.(c / n_algos) in
        let (a : Algo.ressched) = algos.(c mod n_algos) in
        let sched = a.run inst.env inst.dag in
        check ~validate inst sched;
        (float_of_int (Schedule.turnaround sched), Schedule.cpu_hours sched))
      cells
  in
  let matrix f =
    Array.init n_algos (fun ai -> Array.init n_inst (fun ii -> f results.(ii * n_algos + ai)))
  in
  {
    tat = { Metrics.scenario; algos = algo_names; values = matrix fst };
    cpu_hours = { Metrics.scenario; algos = algo_names; values = matrix snd };
  }

(* The loose deadline of Section 5.3: this factor times the latest
   tightest deadline across an instance's algorithms. *)
let loose_factor = 1.5

let deadline ?(validate = false) ~pool ~algos ~scenario (instances : Instance.t list) =
  let algos = Array.of_list algos in
  let instances = Array.of_list instances in
  let n_algos = Array.length algos in
  let n_inst = Array.length instances in
  let algo_names = Array.map (fun (a : Algo.deadline) -> a.name) algos in
  let cells = Array.init (n_inst * n_algos) Fun.id in
  (* phase 1: per cell, the deadline-independent preparation and the
     tightest achievable deadline *)
  let prepared_tight =
    let cell c =
      Mp_obs.Span.wrap sp_cell @@ fun () ->
      let inst = instances.(c / n_algos) in
      let (a : Algo.deadline) = algos.(c mod n_algos) in
      let prepared = a.prepare inst.env inst.dag in
      let tight = Deadline.tightest prepared inst.env inst.dag in
      (match tight with
      | Some (k, sched) -> check ~validate inst ~deadline:k sched
      | None -> ());
      (prepared, tight)
    in
    Pool.map_array pool cell cells
  in
  (* the loose deadline couples an instance's cells: barrier here *)
  let loose =
    Array.init n_inst (fun ii ->
        let max_tight = ref 1 in
        for ai = 0 to n_algos - 1 do
          match snd prepared_tight.((ii * n_algos) + ai) with
          | Some (k, _) -> if k > !max_tight then max_tight := k
          | None -> ()
        done;
        int_of_float (ceil (loose_factor *. float_of_int !max_tight)))
  in
  (* phase 2: per cell, CPU-hours at the loose deadline (falling back
     to the tightest-deadline schedule on failure) *)
  let cpu =
    Pool.map_array pool
      (fun c ->
        Mp_obs.Span.wrap sp_cell @@ fun () ->
        let inst = instances.(c / n_algos) in
        let prepared, tight = prepared_tight.(c) in
        let deadline = loose.(c / n_algos) in
        match prepared ~deadline with
        | Some sched ->
            check ~validate inst ~deadline sched;
            Schedule.cpu_hours sched
        | None -> (
            match tight with
            | Some (_, sched) -> Schedule.cpu_hours sched
            | None -> infinity))
      cells
  in
  let matrix f =
    Array.init n_algos (fun ai -> Array.init n_inst (fun ii -> f ((ii * n_algos) + ai)))
  in
  {
    tightest =
      {
        Metrics.scenario;
        algos = algo_names;
        values =
          matrix (fun c ->
              match snd prepared_tight.(c) with
              | Some (k, _) -> float_of_int k
              | None -> infinity);
      };
    loose_cpu_hours =
      { Metrics.scenario; algos = algo_names; values = matrix (fun c -> cpu.(c)) };
  }

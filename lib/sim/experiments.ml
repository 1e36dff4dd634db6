module Rng = Mp_prelude.Rng
module Stats = Mp_prelude.Stats
module Pool = Mp_prelude.Pool
module Dag_gen = Mp_dag.Dag_gen
module Calendar = Mp_platform.Calendar
module Job = Mp_workload.Job
module Log_model = Mp_workload.Log_model
module Reservation_gen = Mp_workload.Reservation_gen
module Grid5000 = Mp_workload.Grid5000
module Schedule = Mp_cpa.Schedule
module Algo = Mp_core.Algo
module Bound = Mp_core.Bound
module Bottom_level = Mp_core.Bottom_level
module Ressched = Mp_core.Ressched
module Deadline = Mp_core.Deadline

let log_src = Logs.Src.create "mpres.experiments" ~doc:"experiment progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

type scale = { seed : int; n_app : int; n_res : int; n_dags : int; n_cals : int }

let tiny = { seed = 42; n_app = 1; n_res = 2; n_dags = 1; n_cals = 2 }
let quick = { seed = 42; n_app = 3; n_res = 4; n_dags = 2; n_cals = 2 }
let standard = { seed = 42; n_app = 10; n_res = 9; n_dags = 3; n_cals = 5 }
let paper = { seed = 42; n_app = 40; n_res = 36; n_dags = 20; n_cals = 50 }

(* The simulation tables keep the quick shape at [huge]: the tier exists
   for the calendar-index ladder (10^5-10^6 reservations per calendar)
   and the service soak, which scale independently of the table
   scenario counts — see "Calendar index" in the bench harness. *)
let huge = { quick with seed = 42 }

let scales =
  [ ("tiny", tiny); ("quick", quick); ("standard", standard); ("paper", paper); ("huge", huge) ]

let day = 86_400
let hours s = float_of_int s /. 3600.
let now () = Unix.gettimeofday ()

(* Every table's text below takes the caller's [~pool] (the sequential
   ones ignore it); the fan-out itself lives in {!Runner} and {!Pool.map},
   and parallel results are bit-identical to a pool of one worker — see
   "Parallel experiment engine" in DESIGN.md. *)

(* ------------------------------------------------------------------ *)
(* Table 2 *)

type log_row = {
  log_name : string;
  cpus : int;
  target_util : float;
  realized_util : float;
  n_jobs : int;
}

let table2 scale =
  List.map
    (fun (preset : Log_model.preset) ->
      let jobs = Logcache.jobs ~seed:scale.seed preset in
      let horizon = 60 * day in
      {
        log_name = preset.name;
        cpus = preset.cpus;
        target_util = preset.target_utilization;
        realized_util = Mp_workload.Batch_sim.utilization ~procs:preset.cpus ~horizon jobs;
        n_jobs = List.length jobs;
      })
    Log_model.all

let table2_text ~pool:_ scale =
  let rows =
    List.map
      (fun r ->
        [
          r.log_name;
          string_of_int r.cpus;
          Report.f3 r.target_util;
          Report.f3 r.realized_util;
          string_of_int r.n_jobs;
        ])
      (table2 scale)
  in
  Report.render ~title:"Table 2: synthetic workload logs (realized characteristics)"
    ~header:[ "Log"; "#CPUs"; "target util"; "realized util"; "#jobs" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Table 3 *)

type table3 = {
  stats : (string * Stats.summary * Stats.summary) list;
  correlations : (string * float) list;
}

(* Windowed means: the paper's tiny CVs (a few %) are only consistent with
   variation of per-window averages, not of raw job statistics. *)
let windowed_stats rng jobs ~n_windows =
  let execs = ref [] and waits = ref [] in
  let attempts = n_windows * 4 in
  let rec go k remaining =
    if remaining = 0 || k = 0 then ()
    else begin
      let at = Reservation_gen.random_instant rng jobs in
      let in_window =
        List.filter
          (fun (j : Job.t) ->
            match j.start with Some s -> s >= at && s < at + (7 * day) | None -> false)
          jobs
      in
      if List.length in_window < 5 then go (k - 1) remaining
      else begin
        let mean_exec = Stats.mean (List.map (fun (j : Job.t) -> hours j.run) in_window) in
        let mean_wait =
          Stats.mean
            (List.map
               (fun (j : Job.t) -> match Job.wait j with Some w -> hours w | None -> 0.)
               in_window)
        in
        execs := mean_exec :: !execs;
        waits := mean_wait :: !waits;
        go (k - 1) (remaining - 1)
      end
    end
  in
  go attempts n_windows;
  match !execs with
  | [] -> None
  | _ -> Some (Stats.summarize !execs, Stats.summarize !waits)

let table3 scale =
  let rng = Rng.create (scale.seed + 3) in
  let n_windows = max 4 scale.n_cals in
  let g5k = Logcache.grid5000 ~seed:scale.seed in
  let stats =
    List.filter_map
      (fun (name, jobs) ->
        Option.map (fun (e, w) -> (name, e, w)) (windowed_stats rng jobs ~n_windows))
      (("Grid5000", g5k.Grid5000.jobs)
      :: List.map (fun p -> (p.Log_model.name, Logcache.jobs ~seed:scale.seed p)) Log_model.all)
  in
  (* Reservation-series correlations: compare each method's synthetic
     series against Grid'5000 series, averaged over draws. *)
  let series_of_resgen rg =
    Calendar.busy_series (Reservation_gen.calendar rg) ~from_:0 ~until:(7 * day) ~step:3600
  in
  let g5k_series () =
    let at = Reservation_gen.random_instant rng g5k.Grid5000.jobs in
    series_of_resgen
      (Reservation_gen.extract rng Reservation_gen.Real ~procs:g5k.Grid5000.cpus ~at
         g5k.Grid5000.jobs)
  in
  let presets = Array.of_list Log_model.all in
  let phis = Array.of_list Scenario.phis in
  let n_draws = max 4 (scale.n_cals * 2) in
  let correlations =
    List.map
      (fun method_ ->
        let cs =
          List.init n_draws (fun k ->
              let preset = presets.(k mod Array.length presets) in
              let phi = phis.(k mod Array.length phis) in
              let jobs = Logcache.jobs ~seed:scale.seed preset in
              let at = Reservation_gen.random_instant rng jobs in
              let tagged = Reservation_gen.tag rng ~phi jobs in
              let rg =
                Reservation_gen.extract rng method_ ~procs:preset.Log_model.cpus ~at tagged
              in
              Stats.correlation (series_of_resgen rg) (g5k_series ()))
        in
        (Reservation_gen.method_name method_, Stats.mean cs))
      Reservation_gen.all_methods
  in
  { stats; correlations }

let table3_text ~pool:_ scale =
  let t = table3 scale in
  Report.render ~title:"Table 3: per-log windowed statistics"
    ~header:[ "Log"; "avg exec [h]"; "CV exec [%]"; "avg wait [h]"; "CV wait [%]" ]
    ~rows:
      (List.map
         (fun (name, (e : Stats.summary), (w : Stats.summary)) ->
           [ name; Report.f2 e.mean; Report.f2 (e.cv *. 100.); Report.f2 w.mean; Report.f2 (w.cv *. 100.) ])
         t.stats)
  ^ "\n"
  ^ Report.render ~title:"Table 3 (cont.): correlation of synthetic methods with Grid'5000 series"
      ~header:[ "method"; "avg correlation" ]
      ~rows:(List.map (fun (m, c) -> [ m; Report.f2 c ]) t.correlations)

(* ------------------------------------------------------------------ *)
(* Scenario enumeration helpers *)

let synthetic_scenarios scale =
  let apps = Scenario.sample_app_specs scale.n_app in
  let ress = Scenario.sample_res_specs scale.n_res in
  List.concat_map (fun app -> List.map (fun res -> (app, res)) ress) apps

(* ------------------------------------------------------------------ *)
(* Section 4.3.1: bottom-level comparison *)

type bl_comparison = {
  improvement_min : float;
  improvement_max : float;
  best_shares : (string * float) list;
}

let bl_comparison ~pool scale =
  let scenarios = synthetic_scenarios scale in
  (* one work item per scenario: each returns its per-(bd) means, the
     accumulators below are filled from the ordered result list *)
  let per_scenario =
    Pool.map pool
      (fun ((app : Scenario.app_spec), res) ->
        let instances =
          Instance.synthetic ~seed:scale.seed ~app ~res ~n_dags:scale.n_dags
            ~n_cals:scale.n_cals
        in
        List.map
          (fun bd ->
            (* mean turnaround per BL method over the scenario's instances *)
            let mean_of bl =
              Stats.mean
                (List.map
                   (fun (inst : Instance.t) ->
                     float_of_int
                       (Schedule.turnaround (Ressched.schedule ~bl ~bd inst.env inst.dag)))
                   instances)
            in
            ( mean_of Bottom_level.BL_1,
              List.map (fun bl -> (bl, mean_of bl)) [ Bottom_level.BL_ALL; BL_CPA; BL_CPAR ] ))
          Bound.all)
      scenarios
  in
  let improvements = ref [] in
  let best_counts = Hashtbl.create 4 in
  let cases = ref 0 in
  List.iter
    (List.iter (fun (base, results) ->
         List.iter
           (fun (_, m) -> improvements := ((base -. m) /. base *. 100.) :: !improvements)
           results;
         let all = (Bottom_level.BL_1, base) :: results in
         let best = List.fold_left (fun acc (_, m) -> Float.min acc m) base all in
         incr cases;
         List.iter
           (fun (bl, m) ->
             if m <= best +. 1e-9 then begin
               let name = Bottom_level.name bl in
               Hashtbl.replace best_counts name (1 + Option.value ~default:0 (Hashtbl.find_opt best_counts name))
             end)
           all))
    per_scenario;
  let shares =
    List.map
      (fun bl ->
        let name = Bottom_level.name bl in
        ( name,
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt best_counts name))
          /. float_of_int (max 1 !cases) ))
      Bottom_level.all
  in
  {
    improvement_min = Stats.minimum !improvements;
    improvement_max = Stats.maximum !improvements;
    best_shares = shares;
  }

let bl_text ~pool scale =
  let c = bl_comparison ~pool scale in
  Report.render ~title:"Section 4.3.1: bottom-level method comparison (improvement over BL_1)"
    ~header:[ "quantity"; "value" ]
    ~rows:
      ([
         [ "min improvement [%]"; Report.f2 c.improvement_min ];
         [ "max improvement [%]"; Report.f2 c.improvement_max ];
       ]
      @ List.map (fun (name, s) -> [ name ^ " best share [%]"; Report.f1 (s *. 100.) ]) c.best_shares)

(* ------------------------------------------------------------------ *)
(* Tables 4 and 5 *)

let summarize_ressched (results : Runner.ressched_result list) =
  ( Metrics.summarize (List.map (fun (r : Runner.ressched_result) -> r.tat) results),
    Metrics.summarize (List.map (fun (r : Runner.ressched_result) -> r.cpu_hours) results) )

let table4 ~pool scale =
  let scenarios = synthetic_scenarios scale in
  let total = List.length scenarios in
  let results =
    List.mapi
      (fun k ((app : Scenario.app_spec), res) ->
        let scenario = app.label ^ " x " ^ Scenario.res_label res in
        let t0 = now () in
        let instances =
          Instance.synthetic ~seed:scale.seed ~app ~res ~n_dags:scale.n_dags
            ~n_cals:scale.n_cals
        in
        let r = Runner.ressched ~pool ~algos:Algo.ressched_main ~scenario instances in
        Log.info (fun m ->
            m "table4: scenario %d/%d (%s) [%.2f s]" (k + 1) total scenario (now () -. t0));
        r)
      scenarios
  in
  summarize_ressched results

let table5 ~pool scale =
  let apps = Scenario.sample_app_specs scale.n_app in
  let results =
    List.map
      (fun (app : Scenario.app_spec) ->
        let scenario = app.label ^ " x Grid5000" in
        let t0 = now () in
        let instances =
          Instance.grid5000 ~seed:scale.seed ~app ~n_dags:scale.n_dags ~n_cals:scale.n_cals
        in
        let r = Runner.ressched ~pool ~algos:Algo.ressched_main ~scenario instances in
        Log.info (fun m -> m "table5: scenario %s [%.2f s]" scenario (now () -. t0));
        r)
      apps
  in
  summarize_ressched results

let ressched_header =
  [ "Algorithm"; "TAT deg [%]"; "TAT wins"; "CPUh deg [%]"; "CPUh wins" ]

let table4_text ~pool scale =
  let tat, cpu = table4 ~pool scale in
  Report.render ~title:"Table 4: RESSCHED, synthetic reservation schedules" ~header:ressched_header
    ~rows:(Report.summary_rows tat cpu)

let table5_text ~pool scale =
  let tat, cpu = table5 ~pool scale in
  Report.render ~title:"Table 5: RESSCHED, Grid'5000 reservation schedules" ~header:ressched_header
    ~rows:(Report.summary_rows tat cpu)

(* Extended: the full 16-combination BL x BD matrix (the paper only
   reports the marginals of Sections 4.3.1 and 4.3.2). *)
let bl_bd_matrix ~pool scale =
  let scenarios = synthetic_scenarios scale in
  let results =
    List.map
      (fun ((app : Scenario.app_spec), res) ->
        let instances =
          Instance.synthetic ~seed:scale.seed ~app ~res ~n_dags:scale.n_dags
            ~n_cals:scale.n_cals
        in
        Runner.ressched ~pool ~algos:Algo.ressched_all
          ~scenario:(app.label ^ " x " ^ Scenario.res_label res)
          instances)
      scenarios
  in
  summarize_ressched results

let matrix_text ~pool scale =
  let tat, cpu = bl_bd_matrix ~pool scale in
  Report.render ~title:"Extended: all 16 BL x BD combinations (RESSCHED, synthetic schedules)"
    ~header:ressched_header ~rows:(Report.summary_rows tat cpu)

(* ------------------------------------------------------------------ *)
(* Tables 6 and 7 *)

(* The paper restricts Table 6's synthetic columns to the SDSC_BLUE log. *)
let deadline_res_specs phi =
  List.map
    (fun method_ -> { Scenario.log = Log_model.sdsc_blue; phi; method_ })
    Reservation_gen.all_methods

let deadline_apps scale = Scenario.sample_app_specs (max 1 (scale.n_app / 2))

let table6_column ~pool scale ~algos specs_or_g5k =
  let apps = deadline_apps scale in
  let results =
    match specs_or_g5k with
    | `Synthetic specs ->
        List.concat_map
          (fun (app : Scenario.app_spec) ->
            List.map
              (fun res ->
                let scenario = app.label ^ " x " ^ Scenario.res_label res in
                let t0 = now () in
                let instances =
                  Instance.synthetic ~seed:scale.seed ~app ~res ~n_dags:scale.n_dags
                    ~n_cals:scale.n_cals
                in
                let r = Runner.deadline ~pool ~algos ~scenario instances in
                Log.info (fun m -> m "deadline scenario %s [%.2f s]" scenario (now () -. t0));
                r)
              specs)
          apps
    | `Grid5000 ->
        List.map
          (fun (app : Scenario.app_spec) ->
            let scenario = app.label ^ " x Grid5000" in
            let t0 = now () in
            let instances =
              Instance.grid5000 ~seed:scale.seed ~app ~n_dags:scale.n_dags
                ~n_cals:scale.n_cals
            in
            let r = Runner.deadline ~pool ~algos ~scenario instances in
            Log.info (fun m -> m "deadline scenario %s [%.2f s]" scenario (now () -. t0));
            r)
          apps
  in
  ( Metrics.summarize (List.map (fun (r : Runner.deadline_result) -> r.tightest) results),
    Metrics.summarize (List.map (fun (r : Runner.deadline_result) -> r.loose_cpu_hours) results) )

let table6 ~pool scale =
  let algos = Algo.deadline_main in
  List.map
    (fun phi ->
      let tight, cpu = table6_column ~pool scale ~algos (`Synthetic (deadline_res_specs phi)) in
      (Printf.sprintf "phi=%.1f" phi, tight, cpu))
    Scenario.phis
  @ [
      (let tight, cpu = table6_column ~pool scale ~algos `Grid5000 in
       ("Grid5000", tight, cpu));
    ]

let deadline_header =
  [ "Algorithm"; "tightest deg [%]"; "wins"; "CPUh@loose deg [%]"; "wins" ]

(* Each column group is followed by a blank line. *)
let table6_text ~pool scale =
  String.concat ""
    (List.map
       (fun (label, tight, cpu) ->
         Report.render
           ~title:(Printf.sprintf "Table 6 (%s): deadline algorithms" label)
           ~header:deadline_header ~rows:(Report.summary_rows tight cpu)
         ^ "\n")
       (table6 ~pool scale))

let table7 ~pool scale =
  table6_column ~pool scale ~algos:Algo.deadline_hybrid `Grid5000

let table7_text ~pool scale =
  let tight, cpu = table7 ~pool scale in
  Report.render ~title:"Table 7: hybrid deadline algorithms, Grid'5000 schedules"
    ~header:deadline_header ~rows:(Report.summary_rows tight cpu)

(* ------------------------------------------------------------------ *)
(* Table 8 (static) *)

let table8_text ~pool:_ _ =
  Report.render ~title:"Table 8: worst-case asymptotic complexities"
    ~header:[ "Algorithm"; "Complexity" ]
    ~rows:
      [
        [ "BD_ALL"; "O(V^2 P' + V^2 P + V E P' + V R P)" ];
        [ "BD_CPA"; "O(V^2 P' + V^2 P + V E P' + V E P + V R P)" ];
        [ "BD_CPAR"; "O(V^2 P' + V E P' + V R P')" ];
        [ "DL_BD_ALL"; "O(V^2 P' + V^2 P + V E P' + V R' P)" ];
        [ "DL_BD_CPA"; "O(V^2 P' + V^2 P + V E P' + V E P + V R' P)" ];
        [ "DL_BD_CPAR"; "O(V^2 P' + V E P' + V R' P')" ];
        [ "DL_RC_CPA"; "O(V^2 P' + V^2 P + V E P' + V E P + V R' P)" ];
        [ "DL_RC_CPAR"; "O(V^2 P' + V E P' + V R' P')" ];
        [ "DL_RC_CPAR-l"; "O(V^2 P' + V E P' + V R' P')" ];
        [ "DL_RCBD_CPAR-l"; "O(V^2 P' + V E P' + V R' P')" ];
      ]

(* ------------------------------------------------------------------ *)
(* Tables 9 and 10: execution times *)

type timing_row = { algo_name : string; times_ms : (string * float) list }

(* Mean CPU milliseconds per run of [f].  The first run keeps the probes
   as they are, so a traced run counts each cell exactly once; the timed
   repeats (at least 3, and at least 40 ms of CPU time in all) run with
   the probes off, so they measure the production path. *)
let time_ms f =
  f ();
  let saved = !Mp_obs.enabled in
  Mp_obs.enabled := false;
  Fun.protect ~finally:(fun () -> Mp_obs.enabled := saved) @@ fun () ->
  let t0 = Sys.time () in
  let reps = ref 0 in
  let elapsed () = Sys.time () -. t0 in
  while elapsed () < 0.04 || !reps < 3 do
    f ();
    incr reps
  done;
  elapsed () /. float_of_int !reps *. 1000.

(* Every sweep point of a table shares one Grid'5000-style environment
   and varies only the application DAG (Table 1 defaults except the swept
   parameter), as in the paper's setup.  A row per Table 8 algorithm
   (BD_HALF is not one); the DL_* rows get a loose deadline of twice the
   RESSCHED turn-around. *)
let timing_sweep scale sweeps =
  let env =
    (* the app label seeds the environment: "bench" keeps the calendar the
       benchmark harness has timed these tables on *)
    let app = { Scenario.label = "bench"; params = Dag_gen.default } in
    match Instance.grid5000 ~seed:scale.seed ~app ~n_dags:1 ~n_cals:1 with
    | [ inst ] -> inst.env
    | _ -> assert false
  in
  let points =
    List.map
      (fun (label, params) ->
        let dag = Dag_gen.generate (Rng.create (Hashtbl.hash (scale.seed, params))) params in
        (label, dag, 2 * Schedule.turnaround (Ressched.schedule env dag)))
      sweeps
  in
  let row algo_name run =
    {
      algo_name;
      times_ms =
        List.map (fun (label, dag, loose) -> (label, time_ms (fun () -> run dag loose))) points;
    }
  in
  let res =
    List.filter_map
      (fun (a : Algo.ressched) ->
        if a.name = "BD_HALF" then None
        else Some (row a.name (fun dag _ -> ignore (a.run env dag))))
      Algo.ressched_main
  in
  res
  @ List.map
      (fun (a : Algo.deadline) ->
        row a.name (fun dag loose -> ignore (a.prepare env dag ~deadline:loose)))
      Algo.deadline_all

let table9 scale =
  let ns = [ 10; 25; 50; 75; 100 ] in
  timing_sweep scale
    (List.map (fun n -> (Printf.sprintf "n=%d" n, { Dag_gen.default with n })) ns)

let table10 scale =
  let ds = [ 0.1; 0.3; 0.5; 0.7; 0.9 ] in
  timing_sweep scale
    (List.map (fun d -> (Printf.sprintf "d=%.1f" d, { Dag_gen.default with density = d })) ds)

let timing_text ~title rows =
  match rows with
  | [] -> ""
  | first :: _ ->
      Report.render ~title
        ~header:("Algorithm" :: List.map fst first.times_ms)
        ~rows:
          (List.map
             (fun r -> r.algo_name :: List.map (fun (_, ms) -> Report.f3 ms) r.times_ms)
             rows)

let table9_text ~pool:_ scale =
  timing_text ~title:"Table 9: execution time [ms] vs task count" (table9 scale)

let table10_text ~pool:_ scale =
  timing_text ~title:"Table 10: execution time [ms] vs edge density" (table10 scale)

(* ------------------------------------------------------------------ *)
(* Ablations *)

type allocator_row = { allocator : string; avg_makespan_h : float; avg_work_h : float }

let allocator_ablation scale =
  let rng = Rng.create (scale.seed + 77) in
  let n_dags = max 4 (scale.n_dags * 2) in
  let dags = List.init n_dags (fun _ -> Mp_dag.Dag_gen.generate rng Dag_gen.default) in
  let p = 64 in
  let allocators =
    [
      ("CPA (classic criterion)", fun dag -> Mp_cpa.Cpa.schedule ~criterion:Mp_cpa.Allocation.Classic ~p dag);
      ("CPA (improved criterion)", fun dag -> Mp_cpa.Cpa.schedule ~criterion:Mp_cpa.Allocation.Improved ~p dag);
      ("MCPA", fun dag -> Mp_cpa.Mcpa.schedule ~p dag);
      ("iCASLB", fun dag -> Mp_cpa.Icaslb.schedule ~p dag);
    ]
  in
  List.map
    (fun (allocator, run) ->
      let mks, works =
        List.fold_left
          (fun (mks, works) dag ->
            let sched = run dag in
            (hours (Schedule.turnaround sched) :: mks, Schedule.cpu_hours sched :: works))
          ([], []) dags
      in
      { allocator; avg_makespan_h = Stats.mean mks; avg_work_h = Stats.mean works })
    allocators

let allocators_text ~pool:_ scale =
  Report.render ~title:"Ablation: mixed-parallel allocators on a dedicated 64-processor cluster"
    ~header:[ "Allocator"; "avg makespan [h]"; "avg CPU-hours" ]
    ~rows:
      (List.map
         (fun r -> [ r.allocator; Report.f2 r.avg_makespan_h; Report.f1 r.avg_work_h ])
         (allocator_ablation scale))

type blind_row = { budget : int; avg_turnaround_penalty : float; avg_probes_per_task : float }

let blind_ablation ~pool scale =
  let apps = Scenario.sample_app_specs (max 2 (scale.n_app / 2)) in
  (* the busiest synthetic setting: dense near-term reservations make the
     probe budget actually matter *)
  let res = { Scenario.log = Log_model.sdsc_blue; phi = 0.5; method_ = Reservation_gen.Expo } in
  let instances =
    List.concat_map
      (fun app ->
        Instance.synthetic ~seed:scale.seed ~app ~res ~n_dags:scale.n_dags ~n_cals:scale.n_cals)
      apps
  in
  let baselines =
    Pool.map pool
      (fun (inst : Instance.t) ->
        float_of_int (Schedule.turnaround (Ressched.schedule inst.env inst.dag)))
      instances
  in
  let cases = List.combine instances baselines in
  List.map
    (fun budget ->
      let penalties, probe_rates =
        List.split
          (Pool.map pool
             (fun ((inst : Instance.t), baseline) ->
               let cal = inst.env.calendar in
               let engine =
                 Mp_service.Engine.create
                   ~sites:[| { Mp_service.Engine.calendar = cal; q = Calendar.procs cal } |]
                   ()
               in
               let sched, requests =
                 Mp_core.Blind.schedule ~budget ~q:inst.env.q ~engine inst.dag
               in
               let tat = float_of_int (Schedule.turnaround sched) in
               ( (tat -. baseline) /. baseline *. 100.,
                 float_of_int requests /. float_of_int (Mp_dag.Dag.n inst.dag) ))
             cases)
      in
      {
        budget;
        avg_turnaround_penalty = Stats.mean penalties;
        avg_probes_per_task = Stats.mean probe_rates;
      })
    [ 1; 2; 4; 8; 16; 32; 128; 512 ]

let blind_text ~pool scale =
  let rows = blind_ablation ~pool scale in
  Report.render
    ~title:"Ablation: trial-and-error scheduling (no calendar visibility) vs omniscient BD_CPAR"
    ~header:[ "probe budget"; "turn-around penalty [%]"; "probes per task" ]
    ~rows:
      (List.map
         (fun r ->
           [ string_of_int r.budget; Report.f2 r.avg_turnaround_penalty; Report.f1 r.avg_probes_per_task ])
         rows)

type online_row = {
  arrivals_per_step : float;
  avg_turnaround_penalty : float;  (** % over scheduling with a frozen calendar *)
  avg_competitors_granted : float;
}

(* Competing reservation requests that arrive between two of our placement
   decisions: near-future, modestly sized, short — spoken in the service
   protocol ([Mp_service.Request.Reserve]), like any other client. *)
let draw_arrivals rng ~p ~rate ~steps =
  Array.init steps (fun _ ->
      let k =
        (* Poisson(rate) via inversion, rate is small *)
        let l = exp (-.rate) in
        let rec go k acc = if acc < l then k else go (k + 1) (acc *. Rng.float rng 1.) in
        go 0 (Rng.float rng 1.)
      in
      List.init k (fun _ ->
          let start = Rng.int rng 86_400 in
          let dur = 600 + Rng.int rng 14_400 in
          let procs = 1 + Rng.int rng (max 1 (p / 4)) in
          Mp_service.Request.Reserve { start; dur; procs }))

let online_ablation scale =
  let apps = Scenario.sample_app_specs (max 2 (scale.n_app / 2)) in
  let instances =
    List.concat_map
      (fun app -> Instance.grid5000 ~seed:scale.seed ~app ~n_dags:scale.n_dags ~n_cals:scale.n_cals)
      apps
  in
  let rng = Rng.create (scale.seed + 99) in
  List.map
    (fun rate ->
      let penalties, granted =
        List.split
          (List.map
             (fun (inst : Instance.t) ->
               let frozen =
                 float_of_int (Schedule.turnaround (Ressched.schedule inst.env inst.dag))
               in
               let events =
                 draw_arrivals rng ~p:inst.env.p ~rate ~steps:(Mp_dag.Dag.n inst.dag)
               in
               let sched, competitors = Mp_core.Online.schedule inst.env ~events inst.dag in
               ( (float_of_int (Schedule.turnaround sched) -. frozen) /. frozen *. 100.,
                 float_of_int (List.length competitors) ))
             instances)
      in
      {
        arrivals_per_step = rate;
        avg_turnaround_penalty = Stats.mean penalties;
        avg_competitors_granted = Stats.mean granted;
      })
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ]

let online_text ~pool:_ scale =
  Report.render
    ~title:
      "Ablation: mid-scheduling competitor arrivals (frozen-calendar assumption removed)"
    ~header:[ "arrivals/step"; "turn-around penalty [%]"; "competitors granted" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Report.f1 r.arrivals_per_step;
             Report.f2 r.avg_turnaround_penalty;
             Report.f1 r.avg_competitors_granted;
           ])
         (online_ablation scale))

type icaslb_row = { bound_name : string; avg_turnaround_h : float; avg_cpu_hours : float }

(* Paper section 7, first future-work direction: replace CPA by iCASLB as
   the source of allocation bounds. *)
let icaslb_ablation ~pool scale =
  let apps = Scenario.sample_app_specs (max 2 (scale.n_app / 2)) in
  let res = { Scenario.log = Log_model.ctc_sp2; phi = 0.2; method_ = Reservation_gen.Expo } in
  let instances =
    List.concat_map
      (fun app ->
        Instance.synthetic ~seed:scale.seed ~app ~res ~n_dags:scale.n_dags ~n_cals:scale.n_cals)
      apps
  in
  List.map
    (fun bd ->
      let tats, cpus =
        List.split
          (Pool.map pool
             (fun (inst : Instance.t) ->
               let sched = Ressched.schedule ~bd inst.env inst.dag in
               (hours (Schedule.turnaround sched), Schedule.cpu_hours sched))
             instances)
      in
      {
        bound_name = Bound.name bd;
        avg_turnaround_h = Stats.mean tats;
        avg_cpu_hours = Stats.mean cpus;
      })
    [ Bound.BD_ONE; BD_CPA; BD_ICASLB; BD_CPAR; BD_ICASLBR ]

let icaslb_text ~pool scale =
  Report.render
    ~title:"Ablation: allocation-bound sources (rigid / CPA / iCASLB; RESSCHED)"
    ~header:[ "bound source"; "avg turn-around [h]"; "avg CPU-hours" ]
    ~rows:
      (List.map
         (fun (r : icaslb_row) ->
           [ r.bound_name; Report.f2 r.avg_turnaround_h; Report.f1 r.avg_cpu_hours ])
         (icaslb_ablation ~pool scale))

type hetero_row = {
  hbd : string;
  avg_turnaround_h : float;
  avg_cpu_hours : float;
  fast_site_share : float;
}

let random_grid rng =
  let competing n ~procs =
    let rec go acc cal k =
      if k = 0 then acc
      else begin
        let start = Rng.int rng day in
        let dur = 1_800 + Rng.int rng 14_400 in
        let r =
          Mp_platform.Reservation.make ~start ~finish:(start + dur)
            ~procs:(1 + Rng.int rng (procs / 2))
        in
        match Calendar.reserve_opt cal r with
        | Some cal -> go (r :: acc) cal (k - 1)
        | None -> go acc cal (k - 1)
      end
    in
    go [] (Calendar.create ~procs) n
  in
  Mp_platform.Grid.make
    [
      ({ Mp_platform.Grid.name = "fast"; procs = 32; speed = 2.0 }, competing 6 ~procs:32);
      ({ Mp_platform.Grid.name = "mid"; procs = 64; speed = 1.0 }, competing 10 ~procs:64);
      ({ Mp_platform.Grid.name = "slow"; procs = 128; speed = 0.5 }, competing 12 ~procs:128);
    ]

let hetero_ablation scale =
  let rng = Rng.create (scale.seed + 55) in
  let n = max 6 (scale.n_dags * scale.n_cals) in
  let cases =
    List.init n (fun _ -> (random_grid rng, Mp_dag.Dag_gen.generate rng Dag_gen.default))
  in
  List.map
    (fun bd ->
      let tats, cpus, shares =
        List.fold_left
          (fun (tats, cpus, shares) (grid, dag) ->
            let sched = Mp_core.Hressched.schedule ~bd grid dag in
            let fast =
              Array.fold_left
                (fun acc (s : Mp_core.Hressched.slot) -> if s.site = 0 then acc + 1 else acc)
                0 sched.slots
            in
            ( hours (Mp_core.Hressched.turnaround sched) :: tats,
              Mp_core.Hressched.cpu_hours sched :: cpus,
              (float_of_int fast /. float_of_int (Mp_dag.Dag.n dag)) :: shares ))
          ([], [], []) cases
      in
      {
        hbd = Mp_core.Hressched.bound_name bd;
        avg_turnaround_h = Stats.mean tats;
        avg_cpu_hours = Stats.mean cpus;
        fast_site_share = Stats.mean shares;
      })
    [ Mp_core.Hressched.HBD_ALL; HBD_CPAR ]

let hetero_text ~pool:_ scale =
  Report.render
    ~title:"Ablation: heterogeneous 3-site grid (fast/mid/slow), HCPA-style reference allocation"
    ~header:[ "bound"; "avg turn-around [h]"; "avg CPU-hours"; "fast-site share [%]" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.hbd;
             Report.f2 r.avg_turnaround_h;
             Report.f1 r.avg_cpu_hours;
             Report.f1 (r.fast_site_share *. 100.);
           ])
         (hetero_ablation scale))

type pareto_row = { slack : float; rows : (string * float) list }

(* CPU-hours as a function of deadline looseness: the resource-conservative
   value proposition quantified across the whole slack axis rather than at
   the paper's single "50% looser" point. *)
let pareto_ablation ~pool scale =
  let apps = Scenario.sample_app_specs (max 2 (scale.n_app / 2)) in
  let instances =
    List.concat_map
      (fun app -> Instance.grid5000 ~seed:scale.seed ~app ~n_dags:scale.n_dags ~n_cals:(max 1 (scale.n_cals / 2)))
      apps
  in
  let algos = Algo.deadline_hybrid in
  (* per instance: the latest tightest deadline across algorithms anchors
     the slack axis *)
  let prepared =
    Pool.map pool
      (fun (inst : Instance.t) ->
        let per_algo =
          List.map (fun (a : Algo.deadline) -> (a, a.prepare inst.env inst.dag)) algos
        in
        let tight =
          List.fold_left
            (fun acc (_, algo) ->
              match Deadline.tightest algo inst.env inst.dag with
              | Some (k, _) -> max acc k
              | None -> acc)
            1 per_algo
        in
        (per_algo, tight))
      instances
  in
  List.map
    (fun slack ->
      let rows =
        List.map
          (fun (a : Algo.deadline) ->
            let cpus =
              List.filter_map Fun.id
                (Pool.map pool
                   (fun (per_algo, tight) ->
                     let deadline = int_of_float (ceil (slack *. float_of_int tight)) in
                     let algo = List.assq a per_algo in
                     Option.map Schedule.cpu_hours (algo ~deadline))
                   prepared)
            in
            (a.name, if cpus = [] then infinity else Stats.mean cpus))
          algos
      in
      { slack; rows })
    [ 1.0; 1.25; 1.5; 2.0; 3.0; 5.0 ]

let pareto_text ~pool scale =
  let results = pareto_ablation ~pool scale in
  let header =
    "deadline / tightest" :: (match results with [] -> [] | r :: _ -> List.map fst r.rows)
  in
  Report.render
    ~title:"Ablation: CPU-hours vs deadline looseness (Grid'5000 schedules)"
    ~header
    ~rows:
      (List.map
         (fun r -> Report.f2 r.slack :: List.map (fun (_, c) -> Report.f1 c) r.rows)
         results)

type impact_row = {
  injected : string;  (* "none" or the bound method used for the app *)
  avg_wait_min : float;  (* batch jobs' mean queue wait, minutes *)
  app_cpu_hours : float;
}

(* The paper's motivation (and Margo et al.): advance reservations make
   batch users wait.  Quantified here: a mixed-parallel application's
   reservations are injected into a batch stream and the batch jobs' mean
   wait is compared with and without them, for frugal (BD_CPAR) and
   greedy (BD_ALL) application schedules. *)
let reservation_impact scale =
  let rng = Rng.create (scale.seed + 21) in
  let preset = Log_model.sdsc_ds in
  let days = 20 in
  let raw =
    List.map
      (fun (j : Job.t) -> { j with Job.start = None })
      (Log_model.generate rng ~days preset)
  in
  let mean_wait jobs =
    Stats.mean
      (List.filter_map (fun j -> Option.map (fun w -> float_of_int w /. 60.) (Job.wait j)) jobs)
  in
  let baseline = Mp_workload.Batch_sim.schedule ~procs:preset.cpus raw in
  let dag = Dag_gen.generate rng { Dag_gen.default with n = 50 } in
  let at = days * day / 2 in
  let rows_for bd =
    (* the application books its reservations from mid-log, on top of an
       otherwise empty machine view (the batch queue is invisible to it) *)
    let env = Mp_core.Env.no_reservations ~p:preset.cpus in
    let sched = Ressched.schedule ~bd env dag in
    let reserved =
      List.map (fun r -> Mp_platform.Reservation.shift r at) (Schedule.reservations sched)
    in
    let perturbed = Mp_workload.Batch_sim.schedule ~reserved ~procs:preset.cpus raw in
    {
      injected = Bound.name bd;
      avg_wait_min = mean_wait perturbed;
      app_cpu_hours = Schedule.cpu_hours sched;
    }
  in
  { injected = "none"; avg_wait_min = mean_wait baseline; app_cpu_hours = 0. }
  :: List.map rows_for [ Bound.BD_CPAR; Bound.BD_ALL ]

let impact_text ~pool:_ scale =
  Report.render
    ~title:"Ablation: impact of the application's reservations on batch users (SDSC_DS stream)"
    ~header:[ "app schedule"; "batch avg wait [min]"; "app CPU-hours" ]
    ~rows:
      (List.map
         (fun r -> [ r.injected; Report.f1 r.avg_wait_min; Report.f1 r.app_cpu_hours ])
         (reservation_impact scale))

type estimate_row = { factor : float; rows : (string * float * float) list }

(* Pessimistic estimates: the scheduler books reservations for
   factor x the true execution time.  Since a reservation is paid for its
   whole length and successors wait for reserved (not actual) finishes,
   this is equivalent to scheduling a DAG whose sequential times are
   scaled by the factor. *)
let inflate dag factor =
  let tasks =
    Array.map
      (fun (tk : Mp_dag.Task.t) -> { tk with Mp_dag.Task.seq = tk.Mp_dag.Task.seq *. factor })
      (Mp_dag.Dag.tasks dag)
  in
  Mp_dag.Dag.make tasks (Mp_dag.Dag.edges dag)

let estimate_ablation ~pool scale =
  let apps = Scenario.sample_app_specs (max 2 (scale.n_app / 2)) in
  let instances =
    List.concat_map
      (fun app -> Instance.grid5000 ~seed:scale.seed ~app ~n_dags:scale.n_dags ~n_cals:scale.n_cals)
      apps
  in
  let algos =
    [ ("BD_ALL", Bound.BD_ALL); ("BD_CPA", Bound.BD_CPA); ("BD_CPAR", Bound.BD_CPAR) ]
  in
  List.map
    (fun factor ->
      let rows =
        List.map
          (fun (name, bd) ->
            let tats, cpus =
              List.split
                (Pool.map pool
                   (fun (inst : Instance.t) ->
                     let dag = inflate inst.dag factor in
                     let sched = Ressched.schedule ~bd inst.env dag in
                     (hours (Schedule.turnaround sched), Schedule.cpu_hours sched))
                   instances)
            in
            (name, Stats.mean tats, Stats.mean cpus))
          algos
      in
      { factor; rows })
    [ 1.0; 1.2; 1.5; 2.0 ]

let estimates_text ~pool scale =
  let results = estimate_ablation ~pool scale in
  let header =
    "factor"
    :: List.concat_map (fun (name, _, _) -> [ name ^ " TAT[h]"; name ^ " CPUh" ])
         (match results with [] -> [] | r :: _ -> r.rows)
  in
  Report.render ~title:"Ablation: pessimistic execution-time estimates (reservations billed in full)"
    ~header
    ~rows:
      (List.map
         (fun r ->
           Report.f1 r.factor
           :: List.concat_map (fun (_, tat, cpu) -> [ Report.f2 tat; Report.f1 cpu ]) r.rows)
         results)

(* ------------------------------------------------------------------ *)

type table = { id : string; name : string; text : pool:Pool.t -> scale -> string }

let tables =
  [
    { id = "2"; name = "Table 2"; text = table2_text };
    { id = "3"; name = "Table 3"; text = table3_text };
    { id = "bl"; name = "Section 4.3.1 (bottom-level methods)"; text = bl_text };
    { id = "matrix"; name = "Extended: BL x BD matrix"; text = matrix_text };
    { id = "4"; name = "Table 4"; text = table4_text };
    { id = "5"; name = "Table 5"; text = table5_text };
    { id = "6"; name = "Table 6"; text = table6_text };
    { id = "7"; name = "Table 7"; text = table7_text };
    { id = "8"; name = "Table 8"; text = table8_text };
    { id = "9"; name = "Table 9"; text = table9_text };
    { id = "10"; name = "Table 10"; text = table10_text };
    { id = "allocators"; name = "Ablation: allocators"; text = allocators_text };
    { id = "blind"; name = "Ablation: blind scheduling"; text = blind_text };
    { id = "online"; name = "Ablation: online arrivals"; text = online_text };
    { id = "hetero"; name = "Ablation: heterogeneous grid"; text = hetero_text };
    { id = "icaslb"; name = "Ablation: iCASLB bounds"; text = icaslb_text };
    { id = "impact"; name = "Ablation: reservation impact on batch users"; text = impact_text };
    { id = "pareto"; name = "Ablation: CPU-hours vs deadline looseness"; text = pareto_text };
    { id = "estimates"; name = "Ablation: pessimistic estimates"; text = estimates_text };
  ]

open Mp_sim
module Rng = Mp_prelude.Rng
module Dag_gen = Mp_dag.Dag_gen
module Log_model = Mp_workload.Log_model
module Reservation_gen = Mp_workload.Reservation_gen
module Algo = Mp_core.Algo

let micro = { Experiments.seed = 7; n_app = 1; n_res = 1; n_dags = 1; n_cals = 2 }

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_app_specs_count () =
  (* 5 + 4 + 9 + 9 + 9 + 4 = 40 specifications, per Table 1 *)
  Alcotest.(check int) "40 app specs" 40 (List.length Scenario.app_specs)

let test_res_specs_count () =
  Alcotest.(check int) "36 res specs" 36 (List.length Scenario.res_specs)

let test_phis () = Alcotest.(check (list (float 1e-9))) "phis" [ 0.1; 0.2; 0.5 ] Scenario.phis

let test_sample_specs () =
  let s = Scenario.sample_app_specs 5 in
  Alcotest.(check bool) "at most 5+default" true (List.length s <= 6 && List.length s >= 4);
  Alcotest.(check bool) "includes default params" true
    (List.exists (fun (a : Scenario.app_spec) -> a.params = Dag_gen.default) s);
  Alcotest.(check int) "res sample" 4 (List.length (Scenario.sample_res_specs 4));
  Alcotest.(check int) "oversample capped" 36 (List.length (Scenario.sample_res_specs 100))

let test_res_label () =
  let r =
    { Scenario.log = Log_model.sdsc_blue; phi = 0.2; method_ = Reservation_gen.Expo }
  in
  Alcotest.(check string) "label" "SDSC_BLUE/phi=0.2/expo" (Scenario.res_label r)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let result values =
  {
    Metrics.scenario = "s";
    algos = Array.init (Array.length values) (fun i -> Printf.sprintf "a%d" i);
    values;
  }

let test_metrics_means () =
  let r = result [| [| 1.; 3. |]; [| 2.; 2. |] |] in
  Alcotest.(check (array (float 1e-9))) "means" [| 2.; 2. |] (Metrics.scenario_means r)

let test_metrics_degradation () =
  let r = result [| [| 10.; 10. |]; [| 11.; 11. |]; [| 15.; 15. |] |] in
  let d = Metrics.degradations r in
  Alcotest.(check (float 1e-6)) "best has 0" 0. d.(0);
  Alcotest.(check (float 1e-6)) "10% worse" 10. d.(1);
  Alcotest.(check (float 1e-6)) "50% worse" 50. d.(2)

let test_metrics_winners_ties () =
  let r = result [| [| 5. |]; [| 5. |]; [| 6. |] |] in
  Alcotest.(check (array bool)) "tied winners" [| true; true; false |] (Metrics.winners r)

let test_metrics_nonfinite_filtered () =
  let r = result [| [| 2.; infinity |]; [| 4.; 4. |] |] in
  let m = Metrics.scenario_means r in
  Alcotest.(check (float 1e-9)) "failure excluded" 2. m.(0);
  let all_fail = result [| [| infinity; infinity |]; [| 1.; 1. |] |] in
  Alcotest.(check bool) "all-failed is infinite" true
    ((Metrics.scenario_means all_fail).(0) = infinity)

let test_metrics_summarize () =
  let r1 = result [| [| 10. |]; [| 20. |] |] in
  let r2 = result [| [| 30. |]; [| 15. |] |] in
  match Metrics.summarize [ r1; r2 ] with
  | [ a0; a1 ] ->
      Alcotest.(check int) "a0 wins once" 1 a0.wins;
      Alcotest.(check int) "a1 wins once" 1 a1.wins;
      (* a0: deg 0 then 100; a1: deg 100 then 0 *)
      Alcotest.(check (float 1e-6)) "a0 avg deg" 50. a0.avg_degradation;
      Alcotest.(check (float 1e-6)) "a1 avg deg" 50. a1.avg_degradation
  | _ -> Alcotest.fail "expected two rows"

let test_metrics_summarize_mismatch () =
  let r1 = result [| [| 1. |] |] in
  let r2 = { (result [| [| 1. |] |]) with algos = [| "other" |] } in
  Alcotest.check_raises "inconsistent algos"
    (Invalid_argument "Metrics.summarize: inconsistent algorithm lists") (fun () ->
      ignore (Metrics.summarize [ r1; r2 ]))

let test_metrics_all_nonfinite () =
  (* every flavour of non-finite marks a failure; an algorithm with no
     finite instance at all gets an infinite mean, infinite degradation,
     and never wins *)
  let r = result [| [| Float.nan; infinity; neg_infinity |]; [| 1.; 2.; 3. |] |] in
  let m = Metrics.scenario_means r in
  Alcotest.(check bool) "all-non-finite mean is infinite" true (m.(0) = infinity);
  Alcotest.(check (float 1e-9)) "finite algo unaffected" 2. m.(1);
  let d = Metrics.degradations r in
  Alcotest.(check bool) "failed algo degrades infinitely" true (d.(0) = infinity);
  Alcotest.(check (float 1e-9)) "surviving algo is best" 0. d.(1);
  Alcotest.(check (array bool)) "failed algo never wins" [| false; true |] (Metrics.winners r)

let test_metrics_tie_wins_exceed_scenarios () =
  (* means within the 1e-9 relative tolerance all win, so the win columns
     can sum past the scenario count — the .mli documents this as the
     reason the paper's columns do too *)
  let r1 = result [| [| 1. |]; [| 1. +. 1e-10 |]; [| 2. |] |] in
  let r2 = result [| [| 3. |]; [| 3. |]; [| 4. |] |] in
  let rows = Metrics.summarize [ r1; r2 ] in
  let total_wins = List.fold_left (fun acc (r : Metrics.row) -> acc + r.wins) 0 rows in
  Alcotest.(check int) "near-tie and exact tie both count" 4 total_wins;
  Alcotest.(check bool) "wins sum past scenario count" true
    (total_wins > List.length [ r1; r2 ])

let test_metrics_winner_invariants =
  QCheck.Test.make ~count:100 ~name:"metrics: a winner always exists and is at 0 degradation"
    QCheck.(
      array_of_size (Gen.int_range 1 4)
        (array_of_size (Gen.int_range 1 5) (float_range 0.1 1000.)))
    (fun values ->
      let r = result values in
      let d = Metrics.degradations r and w = Metrics.winners r in
      Array.exists Fun.id w
      && Array.for_all (fun x -> x >= 0.) d
      && Array.exists2 (fun win deg -> win && deg <= 1e-6) w d)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_render () =
  let s =
    Report.render ~title:"T" ~header:[ "a"; "b" ] ~rows:[ [ "x"; "123" ]; [ "yy"; "4" ] ]
  in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains rule" true (String.contains s '-')

let test_report_formats () =
  Alcotest.(check string) "f1" "3.1" (Report.f1 3.14);
  Alcotest.(check string) "f2" "3.14" (Report.f2 3.141);
  Alcotest.(check string) "f3 inf" "inf" (Report.f3 infinity)

(* ------------------------------------------------------------------ *)
(* Logcache / Instance *)

let test_logcache_caches () =
  Logcache.clear ();
  let a = Logcache.jobs ~seed:3 Log_model.osc_cluster in
  let b = Logcache.jobs ~seed:3 Log_model.osc_cluster in
  Alcotest.(check bool) "same physical list" true (a == b);
  let c = Logcache.jobs ~seed:4 Log_model.osc_cluster in
  Alcotest.(check bool) "different seed differs" true (a != c);
  Logcache.clear ()

let test_instance_synthetic () =
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 12 } } in
  let res = { Scenario.log = Log_model.osc_cluster; phi = 0.2; method_ = Reservation_gen.Expo } in
  let insts = Instance.synthetic ~seed:5 ~app ~res ~n_dags:2 ~n_cals:3 in
  Alcotest.(check int) "2 x 3 instances" 6 (List.length insts);
  List.iter
    (fun (inst : Instance.t) ->
      Alcotest.(check int) "dag size" 12 (Mp_dag.Dag.n inst.dag);
      Alcotest.(check int) "platform size" Log_model.osc_cluster.cpus inst.env.p;
      Alcotest.(check bool) "q in range" true (inst.env.q >= 1 && inst.env.q <= inst.env.p))
    insts

let test_instance_deterministic () =
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 10 } } in
  let res = { Scenario.log = Log_model.osc_cluster; phi = 0.1; method_ = Reservation_gen.Real } in
  let a = Instance.synthetic ~seed:6 ~app ~res ~n_dags:1 ~n_cals:1 in
  let b = Instance.synthetic ~seed:6 ~app ~res ~n_dags:1 ~n_cals:1 in
  match (a, b) with
  | [ ia ], [ ib ] ->
      Alcotest.(check bool) "same dag" true (Mp_dag.Dag.edges ia.dag = Mp_dag.Dag.edges ib.dag)
  | _ -> Alcotest.fail "expected single instances"

let test_instance_grid5000 () =
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 10 } } in
  let insts = Instance.grid5000 ~seed:7 ~app ~n_dags:1 ~n_cals:2 in
  Alcotest.(check int) "instances" 2 (List.length insts);
  List.iter
    (fun (inst : Instance.t) ->
      Alcotest.(check string) "label" "Grid5000" inst.res_label;
      Alcotest.(check bool) "has platform" true (inst.env.p > 0))
    insts

(* ------------------------------------------------------------------ *)
(* Runner (with validation on) *)

let micro_instances () =
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 10 } } in
  let res = { Scenario.log = Log_model.osc_cluster; phi = 0.2; method_ = Reservation_gen.Expo } in
  Instance.synthetic ~seed:8 ~app ~res ~n_dags:2 ~n_cals:2

let test_runner_ressched () =
  let insts = micro_instances () in
  let r = Runner.ressched ~validate:true ~algos:Algo.ressched_main ~scenario:"s" insts in
  let tat = r.Runner.tat and cpu = r.Runner.cpu_hours in
  Alcotest.(check int) "algos" 4 (Array.length tat.algos);
  Array.iter
    (fun per_algo -> Alcotest.(check int) "instances" 4 (Array.length per_algo))
    tat.values;
  (* every value must be positive and finite *)
  Array.iter
    (Array.iter (fun v -> Alcotest.(check bool) "finite positive" true (Float.is_finite v && v > 0.)))
    tat.values;
  Array.iter
    (Array.iter (fun v -> Alcotest.(check bool) "cpu positive" true (Float.is_finite v && v > 0.)))
    cpu.values

let test_runner_deadline () =
  let insts = micro_instances () in
  let algos = Algo.deadline_hybrid in
  let r = Runner.deadline ~validate:true ~algos ~scenario:"s" insts in
  let tight = r.Runner.tightest and cpu = r.Runner.loose_cpu_hours in
  Alcotest.(check int) "algos" (List.length algos) (Array.length tight.algos);
  (* robust algorithms must find finite tightest deadlines *)
  Array.iteri
    (fun a per_algo ->
      let name = tight.algos.(a) in
      if name <> "DL_RC_CPAR" then
        Array.iter
          (fun v ->
            if not (Float.is_finite v) then Alcotest.failf "%s has non-finite tightest" name)
          per_algo)
    tight.values;
  ignore cpu

let test_runner_parallel_deterministic () =
  (* the determinism contract: worker count must not change any matrix *)
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 10 } } in
  let res = { Scenario.log = Log_model.osc_cluster; phi = 0.2; method_ = Reservation_gen.Expo } in
  List.iter
    (fun (seed, scenario) ->
      let insts = Instance.synthetic ~seed ~app ~res ~n_dags:2 ~n_cals:2 in
      let seq = Runner.ressched ~jobs:1 ~algos:Algo.ressched_main ~scenario insts in
      let par = Runner.ressched ~jobs:4 ~algos:Algo.ressched_main ~scenario insts in
      Alcotest.(check bool) (scenario ^ ": tat identical") true
        (seq.Runner.tat.values = par.Runner.tat.values);
      Alcotest.(check bool) (scenario ^ ": cpu identical") true
        (seq.Runner.cpu_hours.values = par.Runner.cpu_hours.values))
    [ (11, "s1"); (12, "s2"); (13, "s3") ]

let test_runner_deadline_jobs_invariant () =
  (* Table-6 shape: Grid'5000 reservation environments, the full deadline
     roster, two-phase runner (tightest probe, then the loose-deadline cpu
     phase behind its barrier) — the stealing executor moves cells between
     workers, the matrices must not move at all *)
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 10 } } in
  let insts = Instance.grid5000 ~seed:21 ~app ~n_dags:2 ~n_cals:2 in
  let run jobs = Runner.deadline ~jobs ~algos:Algo.deadline_all ~scenario:"t6" insts in
  let r1 = run 1 in
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "tightest identical (jobs=%d)" jobs)
        true
        (r1.Runner.tightest.values = r.Runner.tightest.values);
      Alcotest.(check bool)
        (Printf.sprintf "loose cpu identical (jobs=%d)" jobs)
        true
        (r1.Runner.loose_cpu_hours.values = r.Runner.loose_cpu_hours.values))
    [ 2; 4 ]

let test_runner_few_cells_invariant () =
  (* fewer cells than workers: both runners still fan their cells over
     the pool, leaving workers idle, and the matrices must match the
     sequential reference exactly *)
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 12 } } in
  let insts = Instance.grid5000 ~seed:31 ~app ~n_dags:1 ~n_cals:1 in
  let algos_r = [ List.hd Algo.ressched_main ] in
  let r1 = Runner.ressched ~jobs:1 ~algos:algos_r ~scenario:"few" insts in
  let r4 = Runner.ressched ~jobs:4 ~algos:algos_r ~scenario:"few" insts in
  Alcotest.(check bool) "few-cells ressched tat identical" true
    (r1.Runner.tat.values = r4.Runner.tat.values);
  Alcotest.(check bool) "few-cells ressched cpu identical" true
    (r1.Runner.cpu_hours.values = r4.Runner.cpu_hours.values);
  let algos_d =
    List.filter_map Algo.deadline_find [ "DL_BD_CPA"; "DL_RCBD_CPAR-l" ]
  in
  Alcotest.(check int) "two deadline algos" 2 (List.length algos_d);
  let d1 = Runner.deadline ~jobs:1 ~algos:algos_d ~scenario:"few" insts in
  let d4 = Runner.deadline ~jobs:4 ~algos:algos_d ~scenario:"few" insts in
  Alcotest.(check bool) "few-cells deadline tightest identical" true
    (d1.Runner.tightest.values = d4.Runner.tightest.values);
  Alcotest.(check bool) "few-cells deadline cpu identical" true
    (d1.Runner.loose_cpu_hours.values = d4.Runner.loose_cpu_hours.values)

let test_runner_worker_exception () =
  (* a crash on a worker domain must propagate to the caller, not hang *)
  let insts = micro_instances () in
  let boom : Algo.ressched = { name = "BOOM"; run = (fun ?spec:_ _ _ -> failwith "boom") } in
  Alcotest.check_raises "worker failure propagates" (Failure "boom") (fun () ->
      ignore (Runner.ressched ~jobs:4 ~algos:[ boom ] ~scenario:"s" insts))

(* ------------------------------------------------------------------ *)
(* Experiments (micro scale) *)

let test_experiments_scales () =
  Alcotest.(check bool) "quick" true (Experiments.scale_of_string "quick" = Some Experiments.quick);
  Alcotest.(check bool) "paper" true (Experiments.scale_of_string "paper" = Some Experiments.paper);
  Alcotest.(check bool) "unknown" true (Experiments.scale_of_string "nope" = None);
  Alcotest.(check bool) "tiny" true (Experiments.scale_of_string "tiny" = Some Experiments.tiny);
  Alcotest.(check int) "paper app specs" 40 Experiments.paper.n_app;
  Alcotest.(check int) "paper res specs" 36 Experiments.paper.n_res;
  Alcotest.(check int) "paper dags" 20 Experiments.paper.n_dags;
  Alcotest.(check int) "paper cals" 50 Experiments.paper.n_cals

(* Golden-file regression: the exact standard_tables.out rendering at tiny
   scale, pinned against a checked-in file so report-formatting or
   algorithm drift is caught by [dune runtest] instead of by eyeballing
   the repository-root artifact.  Regenerate the file by printing
   [Experiments.standard_tables ~jobs:1 Experiments.tiny]. *)
let test_standard_tables_golden () =
  let path =
    if Sys.file_exists "standard_tables_tiny.expected" then "standard_tables_tiny.expected"
    else Filename.concat "test" "standard_tables_tiny.expected"
  in
  let expected = In_channel.with_open_bin path In_channel.input_all in
  let actual = Experiments.standard_tables ~jobs:1 Experiments.tiny in
  Alcotest.(check string) "tiny-scale tables match golden file" expected actual

let test_experiments_table2 () =
  let rows = Experiments.table2 micro in
  Alcotest.(check int) "4 logs" 4 (List.length rows);
  List.iter
    (fun (r : Experiments.log_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s realized %.3f near target %.3f" r.log_name r.realized_util r.target_util)
        true
        (Float.abs (r.realized_util -. r.target_util) < 0.25 *. r.target_util))
    rows

let test_experiments_table4_shape () =
  let tat, cpu = Experiments.table4 micro in
  Alcotest.(check int) "4 rows" 4 (List.length tat);
  let find name rows =
    (List.find (fun (r : Metrics.row) -> r.algo = name) rows).Metrics.avg_degradation
  in
  (* the qualitative Table 4 finding: CPA-based bounding beats naive
     bounding on CPU-hours *)
  Alcotest.(check bool) "BD_CPAR beats BD_ALL on cpu" true (find "BD_CPAR" cpu < find "BD_ALL" cpu)

let test_experiments_allocator_ablation () =
  let rows = Experiments.allocator_ablation micro in
  Alcotest.(check int) "4 allocators" 4 (List.length rows);
  let find name =
    List.find (fun (r : Experiments.allocator_row) -> r.allocator = name) rows
  in
  (* the improved criterion must not use more work than the classic one *)
  Alcotest.(check bool) "improved saves work" true
    ((find "CPA (improved criterion)").avg_work_h <= (find "CPA (classic criterion)").avg_work_h +. 1e-6);
  List.iter
    (fun (r : Experiments.allocator_row) ->
      Alcotest.(check bool) "positive makespan" true (r.avg_makespan_h > 0.))
    rows

let test_experiments_hetero_ablation () =
  match Experiments.hetero_ablation micro with
  | [ all_; cpar ] ->
      Alcotest.(check string) "row order" "HBD_ALL" all_.hbd;
      Alcotest.(check bool) "cpar cheaper" true (cpar.avg_cpu_hours < all_.avg_cpu_hours);
      List.iter
        (fun (r : Experiments.hetero_row) ->
          Alcotest.(check bool) "share in [0,1]" true
            (r.fast_site_share >= 0. && r.fast_site_share <= 1.))
        [ all_; cpar ]
  | _ -> Alcotest.fail "expected two rows"

let test_experiments_online_ablation () =
  let rows = Experiments.online_ablation micro in
  (match rows with
  | first :: _ ->
      Alcotest.(check (float 1e-9)) "zero arrivals, zero penalty" 0. first.avg_turnaround_penalty
  | [] -> Alcotest.fail "no rows");
  List.iter
    (fun (r : Experiments.online_row) ->
      Alcotest.(check bool) "penalty non-negative-ish" true (r.avg_turnaround_penalty >= -1e-9))
    rows

let test_experiments_estimate_ablation () =
  let rows = Experiments.estimate_ablation micro in
  Alcotest.(check int) "4 factors" 4 (List.length rows);
  (* turn-around grows with the over-estimation factor for every algorithm *)
  let tat_of (r : Experiments.estimate_row) name =
    let _, tat, _ = List.find (fun (n, _, _) -> n = name) r.rows in
    tat
  in
  let first = List.hd rows and last = List.nth rows 3 in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " degrades with pessimism")
        true
        (tat_of last name > tat_of first name))
    [ "BD_ALL"; "BD_CPA"; "BD_CPAR" ]

let test_experiments_timing_rows () =
  let rows = Experiments.table9 { micro with n_dags = 1; n_cals = 2 } in
  Alcotest.(check bool) "has rows" true (List.length rows >= 8);
  List.iter
    (fun (r : Experiments.timing_row) ->
      Alcotest.(check int) "5 columns" 5 (List.length r.times_ms);
      List.iter
        (fun (_, ms) -> Alcotest.(check bool) "positive time" true (ms > 0.))
        r.times_ms)
    rows

(* ------------------------------------------------------------------ *)
(* Campaign *)

let campaign_env () =
  let cal = Mp_platform.Calendar.create ~procs:32 in
  Mp_core.Env.make ~calendar:cal ~q:32.

let small_dag seed = Dag_gen.generate (Mp_prelude.Rng.create seed) { Dag_gen.default with n = 10 }

let test_campaign_single () =
  let env = campaign_env () in
  let dag = small_dag 1 in
  let c = Campaign.run env [ { Campaign.at = 0; dag } ] in
  Alcotest.(check int) "one app" 1 (List.length c.apps);
  let solo = Mp_core.Ressched.schedule env dag in
  Alcotest.(check int) "same as solo run" (Mp_cpa.Schedule.turnaround solo) c.makespan

let test_campaign_respects_arrivals () =
  let env = campaign_env () in
  let arrivals =
    [ { Campaign.at = 0; dag = small_dag 2 }; { Campaign.at = 50_000; dag = small_dag 3 } ]
  in
  let c = Campaign.run env arrivals in
  (match c.apps with
  | [ _; late ] ->
      Alcotest.(check int) "arrival recorded" 50_000 late.arrival;
      Alcotest.(check bool) "starts after its arrival" true
        (Mp_cpa.Schedule.earliest_start late.schedule >= 50_000)
  | _ -> Alcotest.fail "expected two apps");
  Alcotest.(check bool) "total cpu is the sum" true
    (Float.abs (c.total_cpu_hours -. List.fold_left (fun a r -> a +. r.Campaign.cpu_hours) 0. c.apps)
    < 1e-9)

let test_campaign_later_apps_see_earlier_ones () =
  (* Two identical apps arriving together: the second must schedule around
     the first, so it finishes no earlier. *)
  let env = campaign_env () in
  let arrivals = [ { Campaign.at = 0; dag = small_dag 4 }; { Campaign.at = 0; dag = small_dag 4 } ] in
  let c = Campaign.run env arrivals in
  match c.apps with
  | [ a; b ] ->
      Alcotest.(check bool) "second not faster" true (b.turnaround >= a.turnaround);
      (* the combined reservations are feasible on the base calendar *)
      let (_ : Mp_platform.Calendar.t) =
        List.fold_left
          (fun cal r -> Mp_platform.Calendar.reserve cal r)
          (campaign_env ()).calendar
          (Mp_cpa.Schedule.reservations a.schedule @ Mp_cpa.Schedule.reservations b.schedule)
      in
      ()
  | _ -> Alcotest.fail "expected two apps"

let test_campaign_rejects_negative_arrival () =
  let env = campaign_env () in
  Alcotest.check_raises "negative arrival" (Invalid_argument "Campaign.run: negative arrival")
    (fun () -> ignore (Campaign.run env [ { Campaign.at = -1; dag = small_dag 5 } ]))

(* ------------------------------------------------------------------ *)
(* Executor *)

let executor_fixture () =
  let tasks =
    Array.init 3 (fun id -> Mp_dag.Task.make ~id ~seq:1000. ~alpha:0.) in
  let dag = Mp_dag.Dag.make tasks [ (0, 1); (1, 2) ] in
  let sched =
    {
      Mp_cpa.Schedule.slots =
        [|
          { start = 0; finish = 1000; procs = 1 };
          { start = 1000; finish = 2000; procs = 1 };
          { start = 2000; finish = 3000; procs = 1 };
        |];
    }
  in
  (dag, sched)

let test_executor_exact () =
  let dag, sched = executor_fixture () in
  let o = Executor.run dag sched ~actual:(fun _ -> 1000) in
  Alcotest.(check bool) "success" true (Executor.success o);
  Alcotest.(check int) "turnaround" 3000 o.realized_turnaround;
  Alcotest.(check (float 1e-9)) "no waste" 0. (Executor.waste o)

let test_executor_early_finish () =
  let dag, sched = executor_fixture () in
  let o = Executor.run dag sched ~actual:(fun _ -> 500) in
  Alcotest.(check bool) "success" true (Executor.success o);
  (* the last task still starts at its reserved time *)
  Alcotest.(check int) "turnaround" 2500 o.realized_turnaround;
  Alcotest.(check (float 1e-9)) "half wasted" 0.5 (Executor.waste o)

let test_executor_kill_cascade () =
  let dag, sched = executor_fixture () in
  let o = Executor.run dag sched ~actual:(fun i -> if i = 1 then 1500 else 1000) in
  Alcotest.(check bool) "not success" false (Executor.success o);
  Alcotest.(check (list int)) "task 1 killed" [ 1 ] o.killed;
  Alcotest.(check (list int)) "task 2 skipped" [ 2 ] o.skipped;
  Alcotest.(check bool) "task 0 finished" true o.finished.(0)

let test_executor_estimation_error () =
  let rng = Mp_prelude.Rng.create 9 in
  let dag, sched = executor_fixture () in
  let o = Executor.with_estimation_error rng dag sched ~factor:2.0 in
  Alcotest.(check bool) "never killed" true (Executor.success o);
  Alcotest.(check bool) "some waste" true (Executor.waste o > 0.);
  Alcotest.check_raises "factor < 1"
    (Invalid_argument "Executor.with_estimation_error: factor < 1") (fun () ->
      ignore (Executor.with_estimation_error rng dag sched ~factor:0.5))

let test_executor_on_real_schedule () =
  (* end-to-end: a real BD_CPAR schedule replayed with 1.5x-pessimistic
     estimates never gets killed and wastes at most 1 - 1/1.5 of the bill *)
  let app = { Scenario.label = "t"; params = { Dag_gen.default with n = 15 } } in
  let res = { Scenario.log = Log_model.osc_cluster; phi = 0.2; method_ = Reservation_gen.Expo } in
  match Instance.synthetic ~seed:10 ~app ~res ~n_dags:1 ~n_cals:1 with
  | [ inst ] ->
      let sched = Mp_core.Ressched.schedule inst.env inst.dag in
      let o = Executor.with_estimation_error (Mp_prelude.Rng.create 3) inst.dag sched ~factor:1.5 in
      Alcotest.(check bool) "success" true (Executor.success o);
      Alcotest.(check bool) "waste bounded" true (Executor.waste o <= (1. -. (1. /. 1.5)) +. 0.05);
      Alcotest.(check bool) "realized <= reserved turnaround" true
        (o.realized_turnaround <= Mp_cpa.Schedule.turnaround sched)
  | _ -> Alcotest.fail "expected one instance"

let () =
  Alcotest.run "sim"
    [
      ( "scenario",
        [
          Alcotest.test_case "app specs count" `Quick test_app_specs_count;
          Alcotest.test_case "res specs count" `Quick test_res_specs_count;
          Alcotest.test_case "phis" `Quick test_phis;
          Alcotest.test_case "sampling" `Quick test_sample_specs;
          Alcotest.test_case "res label" `Quick test_res_label;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "means" `Quick test_metrics_means;
          Alcotest.test_case "degradation" `Quick test_metrics_degradation;
          Alcotest.test_case "winners ties" `Quick test_metrics_winners_ties;
          Alcotest.test_case "non-finite filtered" `Quick test_metrics_nonfinite_filtered;
          Alcotest.test_case "summarize" `Quick test_metrics_summarize;
          Alcotest.test_case "summarize mismatch" `Quick test_metrics_summarize_mismatch;
          Alcotest.test_case "all-non-finite" `Quick test_metrics_all_nonfinite;
          Alcotest.test_case "tie wins exceed scenarios" `Quick test_metrics_tie_wins_exceed_scenarios;
          QCheck_alcotest.to_alcotest test_metrics_winner_invariants;
        ] );
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_render;
          Alcotest.test_case "formats" `Quick test_report_formats;
        ] );
      ( "instances",
        [
          Alcotest.test_case "logcache" `Quick test_logcache_caches;
          Alcotest.test_case "synthetic" `Quick test_instance_synthetic;
          Alcotest.test_case "deterministic" `Quick test_instance_deterministic;
          Alcotest.test_case "grid5000" `Quick test_instance_grid5000;
        ] );
      ( "runner",
        [
          Alcotest.test_case "ressched validated" `Quick test_runner_ressched;
          Alcotest.test_case "deadline validated" `Slow test_runner_deadline;
          Alcotest.test_case "parallel = sequential" `Quick test_runner_parallel_deterministic;
          Alcotest.test_case "deadline jobs-invariant (Table 6 shape)" `Slow test_runner_deadline_jobs_invariant;
          Alcotest.test_case "few cells jobs-invariant" `Quick test_runner_few_cells_invariant;
          Alcotest.test_case "worker exception propagates" `Quick test_runner_worker_exception;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "single app" `Quick test_campaign_single;
          Alcotest.test_case "respects arrivals" `Quick test_campaign_respects_arrivals;
          Alcotest.test_case "later apps see earlier" `Quick test_campaign_later_apps_see_earlier_ones;
          Alcotest.test_case "rejects negative arrival" `Quick test_campaign_rejects_negative_arrival;
        ] );
      ( "executor",
        [
          Alcotest.test_case "exact durations" `Quick test_executor_exact;
          Alcotest.test_case "early finish" `Quick test_executor_early_finish;
          Alcotest.test_case "kill cascade" `Quick test_executor_kill_cascade;
          Alcotest.test_case "estimation error" `Quick test_executor_estimation_error;
          Alcotest.test_case "real schedule replay" `Quick test_executor_on_real_schedule;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "scales" `Quick test_experiments_scales;
          Alcotest.test_case "standard tables golden file" `Slow test_standard_tables_golden;
          Alcotest.test_case "table2" `Slow test_experiments_table2;
          Alcotest.test_case "table4 shape" `Slow test_experiments_table4_shape;
          Alcotest.test_case "allocator ablation" `Slow test_experiments_allocator_ablation;
          Alcotest.test_case "hetero ablation" `Slow test_experiments_hetero_ablation;
          Alcotest.test_case "online ablation" `Slow test_experiments_online_ablation;
          Alcotest.test_case "estimate ablation" `Slow test_experiments_estimate_ablation;
          Alcotest.test_case "timing rows" `Slow test_experiments_timing_rows;
        ] );
    ]

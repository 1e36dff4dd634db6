open Mp_core
module Rng = Mp_prelude.Rng
module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Dag_gen = Mp_dag.Dag_gen
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Schedule = Mp_cpa.Schedule
module Allocation = Mp_cpa.Allocation

let random_dag ?(n = 25) seed = Dag_gen.generate (Rng.create seed) { Dag_gen.default with n }

let diamond () =
  let tasks =
    Array.mapi (fun id s -> Task.make ~id ~seq:s ~alpha:0.1) [| 600.; 1200.; 1800.; 2400. |]
  in
  Dag.make tasks [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let chain_dag n =
  let tasks = Array.init n (fun id -> Task.make ~id ~seq:3600. ~alpha:0.1) in
  Dag.make tasks (List.init (n - 1) (fun i -> (i, i + 1)))

(* A busy environment in the paper's regime: competing reservations occupy
   a moderate fraction of the machine (tagged fraction x utilization stays
   well below 1), leaving holes everywhere. *)
let busy_env ?(p = 8) ?(n_res = 10) seed =
  let rng = Rng.create seed in
  let rec add cal k =
    if k = 0 then cal
    else begin
      let start = Rng.int rng 40_000 in
      let dur = 600 + Rng.int rng 4_000 in
      let procs = 1 + Rng.int rng (p / 2) in
      match Calendar.reserve_opt cal (Reservation.make ~start ~finish:(start + dur) ~procs) with
      | Some cal -> add cal (k - 1)
      | None -> add cal (k - 1)
    end
  in
  let calendar = add (Calendar.create ~procs:p) n_res in
  Env.make ~calendar ~q:(Calendar.average_available calendar ~from_:0 ~until:40_000)

(* Algorithms guaranteed to succeed on a loose enough deadline: the
   aggressive ones (latest-start placement) and the lambda-sweeping hybrids
   (which degenerate to aggressive at lambda = 1).  The pure
   resource-conservative algorithms anchor to a CPA reference schedule
   regardless of the deadline and can be "caught in a bind" (Section 5.4),
   failing at every deadline on dense calendars. *)
let robust_deadline_algos =
  List.filter
    (fun (a : Algo.deadline) -> a.name <> "DL_RC_CPA" && a.name <> "DL_RC_CPAR")
    Algo.deadline_all

let check_valid env dag ?deadline sched =
  match Schedule.validate dag ~base:env.Env.calendar ?deadline sched with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Env *)

let test_env_clamps_q () =
  let cal = Calendar.create ~procs:8 in
  Alcotest.(check int) "q clamped high" 8 (Env.make ~calendar:cal ~q:100.).q;
  Alcotest.(check int) "q clamped low" 1 (Env.make ~calendar:cal ~q:0.).q;
  Alcotest.(check int) "q rounded" 5 (Env.make ~calendar:cal ~q:5.2).q

let test_env_no_reservations () =
  let env = Env.no_reservations ~p:16 in
  Alcotest.(check int) "p" 16 env.p;
  Alcotest.(check int) "q = p" 16 env.q

(* ------------------------------------------------------------------ *)
(* Bottom_level / Bound *)

let test_bl_methods_distinct () =
  let env = Env.make ~calendar:(Calendar.create ~procs:64) ~q:8. in
  let dag = random_dag 1 in
  let cpa = Allocation.per_procs dag in
  let w1 = Bottom_level.weights ~cpa BL_1 env dag in
  let wall = Bottom_level.weights ~cpa BL_ALL env dag in
  (* p-processor weights must be strictly smaller for parallelizable tasks *)
  Alcotest.(check bool) "BL_ALL < BL_1 weights" true
    (Array.for_all2 (fun a b -> a <= b) wall w1 && wall <> w1)

let test_bl_order_topological () =
  let env = busy_env 2 in
  let dag = random_dag 3 in
  let cpa = Allocation.per_procs dag in
  List.iter
    (fun m ->
      let order = Bottom_level.order ~cpa m env dag in
      let pos = Array.make (Dag.n dag) 0 in
      Array.iteri (fun k i -> pos.(i) <- k) order;
      List.iter
        (fun (i, j) ->
          if pos.(i) >= pos.(j) then
            Alcotest.failf "%s order violates edge (%d, %d)" (Bottom_level.name m) i j)
        (Dag.edges dag))
    Bottom_level.all

let test_bl_cpa_equals_cpar_when_q_is_p () =
  let cal = Calendar.create ~procs:16 in
  let env = Env.make ~calendar:cal ~q:16. in
  let dag = random_dag 70 in
  Alcotest.(check bool) "same weights" true
    (Bottom_level.weights ~cpa:(Allocation.per_procs dag) BL_CPA env dag
    = Bottom_level.weights ~cpa:(Allocation.per_procs dag) BL_CPAR env dag)

let test_ressched_name () =
  Alcotest.(check string) "name" "BL_CPAR_BD_CPA" (Ressched.name ~bl:BL_CPAR ~bd:BD_CPA)

let test_ressched_slots_exact_duration () =
  let env = busy_env 71 in
  let dag = random_dag 72 in
  let sched = Ressched.schedule env dag in
  Array.iteri
    (fun i (s : Schedule.slot) ->
      Alcotest.(check int)
        (Printf.sprintf "task %d duration" i)
        (Task.exec_time (Dag.task dag i) s.procs)
        (s.finish - s.start))
    sched.slots

let test_bounds_ranges () =
  let env = busy_env ~p:16 4 in
  let dag = random_dag 5 in
  let cpa = Allocation.per_procs dag in
  List.iter
    (fun m ->
      let b = Bound.bounds ~cpa m env dag in
      Array.iter
        (fun v ->
          if v < 1 || v > 16 then Alcotest.failf "%s bound %d outside [1, 16]" (Bound.name m) v)
        b)
    Bound.all

let test_bd_half () =
  let env = Env.no_reservations ~p:16 in
  let dag = diamond () in
  let b = Bound.bounds ~cpa:(Allocation.per_procs dag) BD_HALF env dag in
  Alcotest.(check bool) "all p/2" true (Array.for_all (fun v -> v = 8) b)

let test_bd_icaslb_bounds () =
  let env = busy_env ~p:16 7 in
  let dag = random_dag 8 in
  let cpa = Allocation.per_procs dag in
  List.iter
    (fun bd ->
      let b = Bound.bounds ~cpa bd env dag in
      Array.iter
        (fun v ->
          if v < 1 || v > 16 then Alcotest.failf "%s bound %d outside [1, 16]" (Bound.name bd) v)
        b;
      (* the extended bounds still yield valid schedules *)
      let sched = Ressched.schedule ~bd env dag in
      check_valid env dag sched)
    [ Bound.BD_ICASLB; BD_ICASLBR ];
  Alcotest.(check int) "extended list" 7 (List.length Bound.extended)

let test_bd_cpar_smaller_than_all () =
  let env = busy_env ~p:32 6 in
  let dag = random_dag 7 in
  let cpa = Allocation.per_procs dag in
  let ball = Bound.bounds ~cpa BD_ALL env dag in
  let bcpar = Bound.bounds ~cpa BD_CPAR env dag in
  Alcotest.(check bool) "CPAR bounds <= ALL bounds" true (Array.for_all2 ( >= ) ball bcpar)

(* ------------------------------------------------------------------ *)
(* Ressched *)

let test_ressched_valid_all_combos () =
  let env = busy_env 8 in
  let dag = random_dag 9 in
  List.iter
    (fun (a : Algo.ressched) -> check_valid env dag (a.run env dag))
    Algo.ressched_all

let test_ressched_empty_calendar_is_cpa_like () =
  (* With no reservations, BL_CPA_BD_CPA equals plain CPA. *)
  let env = Env.no_reservations ~p:16 in
  let dag = random_dag 10 in
  let sched = Ressched.schedule ~bl:BL_CPA ~bd:BD_CPA env dag in
  let cpa = Mp_cpa.Cpa.schedule ~p:16 dag in
  (* Same allocations (the bound is the CPA allocation and a task never
     improves completion with fewer procs on an empty cluster), so the
     makespans agree. *)
  Alcotest.(check int) "same makespan" (Schedule.turnaround cpa) (Schedule.turnaround sched)

let test_ressched_avoids_reservations () =
  (* A full blackout at the start forces a delayed schedule. *)
  let p = 4 in
  let cal = Calendar.reserve (Calendar.create ~procs:p) (Reservation.make ~start:0 ~finish:10_000 ~procs:p) in
  let env = Env.make ~calendar:cal ~q:(float_of_int p) in
  let dag = diamond () in
  let sched = Ressched.schedule env dag in
  check_valid env dag sched;
  Alcotest.(check bool) "starts after blackout" true (Schedule.earliest_start sched >= 10_000)

let test_ressched_uses_hole () =
  (* One processor is free during the blackout: a 1-proc task can start. *)
  let p = 4 in
  let cal = Calendar.reserve (Calendar.create ~procs:p) (Reservation.make ~start:0 ~finish:100_000 ~procs:(p - 1)) in
  let env = Env.make ~calendar:cal ~q:1. in
  let dag = diamond () in
  let sched = Ressched.schedule ~bl:BL_CPAR ~bd:BD_CPAR env dag in
  check_valid env dag sched;
  Alcotest.(check int) "entry starts immediately" 0 (Schedule.start sched (Dag.entry dag))

let test_ressched_deterministic () =
  let env = busy_env 11 in
  let dag = random_dag 12 in
  let s1 = Ressched.schedule env dag and s2 = Ressched.schedule env dag in
  Alcotest.(check bool) "same schedule" true (s1 = s2)

let test_ressched_single_task_dag () =
  (* Degenerate DAG: entry -> exit only. *)
  let tasks = Array.init 2 (fun id -> Task.make ~id ~seq:600. ~alpha:0.2) in
  let dag = Dag.make tasks [ (0, 1) ] in
  let env = busy_env 13 in
  let sched = Ressched.schedule env dag in
  check_valid env dag sched

let test_ressched_one_processor_platform () =
  let cal = Calendar.create ~procs:1 in
  let env = Env.make ~calendar:cal ~q:1. in
  let dag = random_dag ~n:10 14 in
  let sched = Ressched.schedule ~bd:BD_ALL env dag in
  check_valid env dag sched;
  Alcotest.(check bool) "all single-proc slots" true
    (Array.for_all (fun (s : Schedule.slot) -> s.procs = 1) sched.slots)

let test_algo_registry () =
  Alcotest.(check int) "16 combinations" 16 (List.length Algo.ressched_all);
  Alcotest.(check int) "4 main" 4 (List.length Algo.ressched_main);
  Alcotest.(check bool) "find BD_CPAR" true (Algo.ressched_find "bd_cpar" <> None);
  Alcotest.(check bool) "find combo" true (Algo.ressched_find "BL_CPA_BD_ALL" <> None);
  Alcotest.(check bool) "find unknown" true (Algo.ressched_find "nope" = None);
  Alcotest.(check int) "5 deadline main" 5 (List.length Algo.deadline_main);
  Alcotest.(check int) "7 deadline total" 7 (List.length Algo.deadline_all);
  Alcotest.(check bool) "find hybrid" true (Algo.deadline_find "DL_RCBD_CPAR-l" <> None)

(* ------------------------------------------------------------------ *)
(* Deadline *)

let test_deadline_meets_deadline () =
  let env = busy_env 15 in
  let dag = random_dag 16 in
  let loose = 4 * Schedule.turnaround (Ressched.schedule env dag) in
  List.iter
    (fun (a : Algo.deadline) ->
      match a.prepare env dag ~deadline:loose with
      | Some sched -> check_valid env dag ~deadline:loose sched
      | None -> Alcotest.failf "%s failed a loose deadline" a.name)
    robust_deadline_algos;
  (* pure RC algorithms may fail, but any schedule they do produce must be
     valid *)
  List.iter
    (fun algo ->
      match Deadline.resource_conservative algo env dag ~lambda:0. ~deadline:loose with
      | Some sched -> check_valid env dag ~deadline:loose sched
      | None -> ())
    [ Deadline.DL_RC_CPA; DL_RC_CPAR ]

let test_deadline_impossible () =
  let env = busy_env 17 in
  let dag = random_dag 18 in
  (* Deadline below the all-processors critical path is unachievable. *)
  let k = Deadline.lower_bound env dag / 2 in
  List.iter
    (fun (a : Algo.deadline) ->
      match a.prepare env dag ~deadline:k with
      | Some _ -> Alcotest.failf "%s met an impossible deadline" a.name
      | None -> ())
    Algo.deadline_all

let test_deadline_zero () =
  let env = busy_env 19 in
  let dag = random_dag 20 in
  Alcotest.(check bool) "K=0 infeasible" true
    (Deadline.aggressive DL_BD_CPA env dag ~deadline:0 = None)

let test_deadline_rc_saves_cpu () =
  (* On loose deadlines, resource-conservative uses (weakly) fewer
     CPU-hours than the unbounded aggressive algorithm, across seeds. *)
  let total_agg = ref 0. and total_rc = ref 0. in
  for seed = 21 to 26 do
    let env = busy_env seed in
    let dag = random_dag (seed + 100) in
    let loose = 6 * Schedule.turnaround (Ressched.schedule env dag) in
    match
      ( Deadline.aggressive DL_BD_ALL env dag ~deadline:loose,
        Deadline.hybrid ~bounded_fallback:true env dag ~deadline:loose )
    with
    | Some agg, Some (rc, _) ->
        total_agg := !total_agg +. Schedule.cpu_hours agg;
        total_rc := !total_rc +. Schedule.cpu_hours rc
    | None, _ -> Alcotest.fail "aggressive failed loose deadline"
    | _, None -> Alcotest.fail "hybrid failed loose deadline"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rc %.1f < aggressive %.1f CPUh" !total_rc !total_agg)
    true (!total_rc < !total_agg)

let test_deadline_tightest_is_feasible () =
  let env = busy_env 27 in
  let dag = random_dag 28 in
  List.iter
    (fun (a : Algo.deadline) ->
      match Deadline.tightest (a.prepare env dag) env dag with
      | Some (k, sched) ->
          check_valid env dag ~deadline:k sched;
          (* tightest cannot beat the absolute lower bound *)
          Alcotest.(check bool) "above lower bound" true (k >= Deadline.lower_bound env dag)
      | None -> Alcotest.failf "%s found no feasible deadline" a.name)
    robust_deadline_algos

let test_tightest_from_lower_bound () =
  (* one task with alpha = 1: the lower bound is its sequential time *)
  let dag = Dag.make [| Task.make ~id:0 ~seq:1000. ~alpha:1. |] [] in
  let env = Env.make ~calendar:(Calendar.create ~procs:8) ~q:8. in
  let probes = ref [] in
  let oracle ~deadline =
    probes := deadline :: !probes;
    if deadline >= 5000 then Some { Schedule.slots = [||] } else None
  in
  match Deadline.tightest oracle env dag with
  | None -> Alcotest.fail "no tightest deadline"
  | Some (k, _) ->
      Alcotest.(check int) "first probe at the lower bound" 1000 (List.hd (List.rev !probes));
      Alcotest.(check bool) (Printf.sprintf "%d within resolution of 5000" k) true
        (5000 <= k && k < 5060)

let test_deadline_monotone_in_k () =
  let env = busy_env 29 in
  let dag = random_dag 30 in
  match Deadline.tightest (Deadline.aggressive DL_BD_CPA env dag) env dag with
  | None -> Alcotest.fail "no tightest deadline"
  | Some (k, _) ->
      (* looser deadlines remain feasible *)
      List.iter
        (fun factor ->
          let k' = k * factor in
          match Deadline.aggressive DL_BD_CPA env dag ~deadline:k' with
          | Some sched -> check_valid env dag ~deadline:k' sched
          | None -> Alcotest.failf "deadline %d (= %d * %d) infeasible" k' k factor)
        [ 2; 4; 8 ]

let test_hybrid_lambda_bounds () =
  let env = busy_env 31 in
  let dag = random_dag 32 in
  let loose = 4 * Schedule.turnaround (Ressched.schedule env dag) in
  match Deadline.hybrid env dag ~deadline:loose with
  | Some (sched, lambda) ->
      check_valid env dag ~deadline:loose sched;
      Alcotest.(check bool) "lambda in [0,1]" true (lambda >= 0. && lambda <= 1.)
  | None -> Alcotest.fail "hybrid failed loose deadline"

let test_hybrid_loose_uses_lambda_zero () =
  let env = Env.no_reservations ~p:8 in
  let dag = diamond () in
  let loose = 10 * Deadline.lower_bound env dag in
  match Deadline.hybrid env dag ~deadline:loose with
  | Some (_, lambda) -> Alcotest.(check (float 1e-9)) "lambda 0 on loose deadline" 0. lambda
  | None -> Alcotest.fail "hybrid failed"

let test_rc_invalid_lambda () =
  let env = Env.no_reservations ~p:8 in
  let dag = diamond () in
  let prepared = Deadline.resource_conservative DL_RC_CPAR env dag in
  List.iter
    (fun (name, lambda) ->
      Alcotest.check_raises name (Invalid_argument "Deadline.resource_conservative: lambda")
        (fun () -> ignore (prepared ~lambda ~deadline:1000)))
    [ ("lambda > 1", 1.5); ("lambda < 0", -0.1); ("lambda nan", Float.nan) ]

let test_deadline_backward_precedence () =
  (* Backward schedules must still respect precedence even with a full
     blackout forcing tasks into a narrow window. *)
  let p = 4 in
  let cal =
    Calendar.reserve (Calendar.create ~procs:p)
      (Reservation.make ~start:5_000 ~finish:50_000 ~procs:p)
  in
  let env = Env.make ~calendar:cal ~q:2. in
  let dag = diamond () in
  let k = 80_000 in
  match Deadline.aggressive DL_BD_CPAR env dag ~deadline:k with
  | Some sched -> check_valid env dag ~deadline:k sched
  | None -> Alcotest.fail "expected feasible schedule around the blackout"

(* ------------------------------------------------------------------ *)
(* Blind (trial-and-error) scheduling *)

let blind env ?budget dag =
  let cal = env.Env.calendar in
  let engine =
    Mp_service.Engine.create
      ~sites:[| { Mp_service.Engine.calendar = cal; q = Calendar.procs cal } |]
      ()
  in
  Blind.schedule ?budget ~q:env.q ~engine dag

let test_blind_matches_omniscient_with_large_budget () =
  (* With enough probes per task, the trial-and-error scheduler finds the
     same earliest-completion placements as the calendar-reading one. *)
  for seed = 40 to 44 do
    let env = busy_env seed in
    let dag = random_dag (seed + 500) in
    let omniscient = Ressched.schedule ~bl:BL_CPAR ~bd:BD_CPAR env dag in
    let sched, _ = blind env ~budget:10_000 dag in
    if sched <> omniscient then
      Alcotest.failf "seed %d: blind schedule differs from omniscient BD_CPAR" seed
  done

let test_blind_valid_with_small_budget () =
  List.iter
    (fun budget ->
      let env = busy_env 45 in
      let dag = random_dag 46 in
      let sched, _ = blind env ~budget dag in
      check_valid env dag sched)
    [ 1; 2; 4; 8 ]

let test_blind_budget_improves_quality () =
  (* Statistically, a roomier budget can only help turn-around time. *)
  let total budget =
    let acc = ref 0 in
    for seed = 47 to 52 do
      let env = busy_env seed in
      let dag = random_dag (seed + 600) in
      acc := !acc + Schedule.turnaround (fst (blind env ~budget dag))
    done;
    !acc
  in
  Alcotest.(check bool) "budget 64 <= budget 1" true (total 64 <= total 1)

let test_blind_counts_probes () =
  let env = busy_env 53 in
  let dag = random_dag 54 in
  let _, requests = blind env dag in
  Alcotest.(check bool) "at least one probe per task" true (requests >= Dag.n dag)

let test_blind_invalid_budget () =
  let env = Env.no_reservations ~p:4 in
  let dag = diamond () in
  Alcotest.check_raises "budget < 1" (Invalid_argument "Blind.schedule: budget < 1") (fun () ->
      ignore (blind env ~budget:0 dag))

(* ------------------------------------------------------------------ *)
(* Hressched (heterogeneous multi-cluster) *)

module Grid = Mp_platform.Grid

let two_site_grid ?(rs1 = []) ?(rs2 = []) () =
  Grid.make
    [
      ({ Grid.name = "fast"; procs = 8; speed = 2.0 }, rs1);
      ({ Grid.name = "slow"; procs = 16; speed = 1.0 }, rs2);
    ]

let test_hetero_valid () =
  let grid = two_site_grid () in
  for seed = 80 to 84 do
    let dag = random_dag seed in
    List.iter
      (fun bd ->
        let sched = Hressched.schedule ~bd grid dag in
        match Hressched.validate grid dag sched with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "seed %d (%s): %s" seed (Hressched.bound_name bd) msg)
      [ Hressched.HBD_ALL; HBD_CPAR ]
  done

let test_hetero_prefers_fast_site () =
  (* A chain DAG on an empty grid: every task should land on the site
     that finishes it first, which for generous sizes is the fast one. *)
  let grid = two_site_grid () in
  let dag = chain_dag 6 in
  let sched = Hressched.schedule ~bd:HBD_ALL grid dag in
  Array.iter
    (fun (s : Hressched.slot) ->
      Alcotest.(check int) "fast site chosen" 0 s.site)
    sched.slots

let test_hetero_avoids_reserved_site () =
  (* The fast site is fully booked for a long time: tasks must go to the
     slow one. *)
  let blackout = [ Reservation.make ~start:0 ~finish:10_000_000 ~procs:8 ] in
  let grid = two_site_grid ~rs1:blackout () in
  let dag = chain_dag 4 in
  let sched = Hressched.schedule grid dag in
  (match Hressched.validate grid dag sched with Ok () -> () | Error m -> Alcotest.fail m);
  Array.iter
    (fun (s : Hressched.slot) -> Alcotest.(check int) "slow site chosen" 1 s.site)
    sched.slots

(* One site at speed 1 with the same calendar and the same availability
   estimate: the heterogeneous scheduler degenerates to the homogeneous
   BD_CPAR one (forward) and DL_BD_CPAR one (backward). *)
let single_site_instance seed =
  let day = 86_400 in
  let rng = Rng.create seed in
  let p = 8 in
  let rs =
    List.filter_map
      (fun _ ->
        let start = Rng.int rng 40_000 in
        let dur = 600 + Rng.int rng 4_000 in
        Some (Reservation.make ~start ~finish:(start + dur) ~procs:(1 + Rng.int rng (p / 2))))
      (List.init 10 Fun.id)
  in
  (* keep a feasible subset *)
  let cal, rs =
    List.fold_left
      (fun (cal, kept) r ->
        match Calendar.reserve_opt cal r with
        | Some cal -> (cal, r :: kept)
        | None -> (cal, kept))
      (Calendar.create ~procs:p, [])
      rs
  in
  let q = Calendar.average_available cal ~from_:0 ~until:(7 * day) in
  let env = Env.make ~calendar:cal ~q in
  let grid = Grid.make [ ({ Grid.name = "only"; procs = p; speed = 1.0 }, rs) ] in
  (env, grid, random_dag (seed + 900))

(* A homogeneous schedule as the one-site grid schedule it must equal. *)
let on_site_0 (s : Schedule.t) =
  {
    Hressched.slots =
      Array.map
        (fun (sl : Schedule.slot) ->
          { Hressched.site = 0; start = sl.start; finish = sl.finish; procs = sl.procs })
        s.slots;
  }

let hetero_schedule = Alcotest.testable Hressched.pp ( = )

let test_hetero_single_site_matches_homogeneous () =
  for seed = 85 to 88 do
    let env, grid, dag = single_site_instance seed in
    Alcotest.check hetero_schedule
      (Printf.sprintf "seed %d: same slots" seed)
      (on_site_0 (Ressched.schedule ~bl:BL_CPAR ~bd:BD_CPAR env dag))
      (Hressched.schedule ~bd:HBD_CPAR grid dag)
  done

let test_hetero_single_site_deadline_matches_homogeneous () =
  for seed = 85 to 88 do
    let env, grid, dag = single_site_instance seed in
    let t = Schedule.turnaround (Ressched.schedule ~bl:BL_CPAR ~bd:BD_CPAR env dag) in
    let homog = Deadline.aggressive DL_BD_CPAR env dag in
    let hetero = Hressched.deadline ~bd:HBD_CPAR grid dag in
    List.iter
      (fun deadline ->
        Alcotest.(check (option hetero_schedule))
          (Printf.sprintf "seed %d, K = %d: same slots" seed deadline)
          (Option.map on_site_0 (homog ~deadline))
          (hetero ~deadline))
      [ t / 2; t; 2 * t; 4 * t ]
  done

let test_hetero_cpar_cheaper_than_all () =
  let total_all = ref 0. and total_cpar = ref 0. in
  for seed = 90 to 94 do
    let dag = random_dag seed in
    let grid = two_site_grid () in
    total_all := !total_all +. Hressched.cpu_hours (Hressched.schedule ~bd:HBD_ALL grid dag);
    total_cpar := !total_cpar +. Hressched.cpu_hours (Hressched.schedule ~bd:HBD_CPAR grid dag)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "HBD_CPAR %.1f <= HBD_ALL %.1f CPUh" !total_cpar !total_all)
    true (!total_cpar <= !total_all)

let test_hetero_speed_scaling () =
  (* Doubling every site's speed should roughly halve the makespan on an
     empty grid. *)
  let dag = random_dag 95 in
  let mk speed =
    Grid.make [ ({ Grid.name = "c"; procs = 16; speed }, []) ]
  in
  let t1 = Hressched.turnaround (Hressched.schedule (mk 1.0) dag) in
  let t2 = Hressched.turnaround (Hressched.schedule (mk 2.0) dag) in
  Alcotest.(check bool)
    (Printf.sprintf "speed 2 turnaround %d within [0.4, 0.6] x %d" t2 t1)
    true
    (float_of_int t2 > 0.4 *. float_of_int t1 && float_of_int t2 < 0.62 *. float_of_int t1)

let test_hetero_deadline_meets () =
  let grid = two_site_grid () in
  let dag = random_dag 96 in
  let forward = Hressched.schedule grid dag in
  let k = 3 * Hressched.turnaround forward in
  match Hressched.deadline grid dag ~deadline:k with
  | None -> Alcotest.fail "loose multi-site deadline failed"
  | Some sched -> (
      Alcotest.(check bool) "within deadline" true (Hressched.turnaround sched <= k);
      match Hressched.validate grid dag sched with Ok () -> () | Error m -> Alcotest.fail m)

let test_hetero_deadline_impossible () =
  let grid = two_site_grid () in
  let dag = random_dag 97 in
  Alcotest.(check bool) "1s deadline infeasible" true
    (Hressched.deadline grid dag ~deadline:1 = None)

let test_hetero_tightest () =
  let grid = two_site_grid () in
  let dag = random_dag 98 in
  match Hressched.tightest grid dag with
  | None -> Alcotest.fail "no tightest deadline"
  | Some (k, sched) ->
      Alcotest.(check bool) "schedule meets it" true (Hressched.turnaround sched <= k);
      (match Hressched.validate grid dag sched with Ok () -> () | Error m -> Alcotest.fail m);
      (* a slightly tighter deadline must be harder; much looser must work *)
      Alcotest.(check bool) "looser ok" true (Hressched.deadline grid dag ~deadline:(2 * k) <> None)

(* ------------------------------------------------------------------ *)
(* Online (mid-scheduling arrivals) *)

let test_online_no_events_is_ressched () =
  let env = busy_env 60 in
  let dag = random_dag 61 in
  let events = Array.make (Dag.n dag) [] in
  let sched, granted = Online.schedule env ~events dag in
  Alcotest.(check int) "no competitors" 0 (List.length granted);
  Alcotest.(check bool) "same as frozen-calendar schedule" true
    (sched = Ressched.schedule env dag)

let test_online_with_events_valid () =
  let env = busy_env 62 in
  let dag = random_dag 63 in
  let rng = Rng.create 64 in
  let events =
    Array.init (Dag.n dag) (fun _ ->
        List.init 2 (fun _ ->
            let start = Rng.int rng 50_000 in
            let dur = 600 + Rng.int rng 5_000 in
            Mp_service.Request.Reserve { start; dur; procs = 1 + Rng.int rng 3 }))
  in
  let sched, granted = Online.schedule env ~events dag in
  (* validation base: original calendar plus granted competitors *)
  let base = List.fold_left Calendar.reserve env.calendar granted in
  match Schedule.validate dag ~base sched with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_online_interference_hurts () =
  (* Heavy interference cannot improve turn-around (statistically). *)
  let total_frozen = ref 0 and total_online = ref 0 in
  for seed = 65 to 70 do
    let env = busy_env seed in
    let dag = random_dag (seed + 700) in
    let rng = Rng.create (seed + 800) in
    let events =
      Array.init (Dag.n dag) (fun _ ->
          List.init 4 (fun _ ->
              let start = Rng.int rng 80_000 in
              let dur = 3_600 + Rng.int rng 20_000 in
              Mp_service.Request.Reserve { start; dur; procs = 1 + Rng.int rng 4 }))
    in
    total_frozen := !total_frozen + Schedule.turnaround (Ressched.schedule env dag);
    let sched, _ = Online.schedule env ~events dag in
    total_online := !total_online + Schedule.turnaround sched
  done;
  Alcotest.(check bool)
    (Printf.sprintf "online %d >= frozen %d" !total_online !total_frozen)
    true
    (!total_online >= !total_frozen)

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_seed = QCheck.small_int

let prop_ressched_valid =
  QCheck.Test.make ~name:"ressched schedules are always valid" ~count:40 arb_seed (fun seed ->
      let env = busy_env seed in
      let dag = random_dag ~n:15 (seed + 1000) in
      List.for_all
        (fun (a : Algo.ressched) ->
          Result.is_ok (Schedule.validate dag ~base:env.calendar (a.run env dag)))
        Algo.ressched_main)

let prop_deadline_valid_when_met =
  QCheck.Test.make ~name:"deadline schedules meet their deadline" ~count:25 arb_seed (fun seed ->
      let env = busy_env seed in
      let dag = random_dag ~n:12 (seed + 2000) in
      let k = 3 * Schedule.turnaround (Ressched.schedule env dag) in
      List.for_all
        (fun (a : Algo.deadline) ->
          match a.prepare env dag ~deadline:k with
          | None -> true
          | Some sched -> Result.is_ok (Schedule.validate dag ~base:env.calendar ~deadline:k sched))
        Algo.deadline_all)

let prop_ressched_respects_bounds =
  QCheck.Test.make ~name:"ressched never exceeds per-task bounds" ~count:30 arb_seed (fun seed ->
      let env = busy_env seed in
      let dag = random_dag ~n:15 (seed + 4000) in
      let cpa = Allocation.per_procs dag in
      List.for_all
        (fun bd ->
          let bounds = Bound.bounds ~cpa bd env dag in
          let sched = Ressched.schedule ~bd env dag in
          Array.for_all
            (fun i -> Schedule.procs sched i <= max 1 bounds.(i))
            (Array.init (Dag.n dag) Fun.id))
        Bound.all)

let prop_deadline_slots_within_window =
  QCheck.Test.make ~name:"deadline slots lie within [0, K]" ~count:20 arb_seed (fun seed ->
      let env = busy_env seed in
      let dag = random_dag ~n:12 (seed + 5000) in
      let k = 3 * Schedule.turnaround (Ressched.schedule env dag) in
      List.for_all
        (fun (a : Algo.deadline) ->
          match a.prepare env dag ~deadline:k with
          | None -> true
          | Some sched ->
              Array.for_all
                (fun (s : Schedule.slot) -> s.start >= 0 && s.finish <= k)
                sched.slots)
        Algo.deadline_all)

let prop_turnaround_at_least_lower_bound =
  QCheck.Test.make ~name:"turnaround >= all-processors critical path" ~count:30 arb_seed
    (fun seed ->
      let env = busy_env seed in
      let dag = random_dag ~n:15 (seed + 6000) in
      let lb = Deadline.lower_bound env dag in
      List.for_all
        (fun (a : Algo.ressched) -> Schedule.turnaround (a.run env dag) >= lb)
        Algo.ressched_main)

(* The λ sweep and the tightest search probe one prepared closure at many
   deadlines, in any order; a conservative closure fills its memo of
   reference schedules on the way.  Probing one closure up and down must
   answer exactly as a fresh closure per deadline. *)
let prop_prepared_reuse =
  QCheck.Test.make ~name:"a reused prepared closure matches fresh ones" ~count:15 arb_seed
    (fun seed ->
      let env = busy_env seed in
      let dag = random_dag ~n:12 (seed + 8000) in
      let k = 2 * Schedule.turnaround (Ressched.schedule env dag) in
      List.for_all
        (fun (a : Algo.deadline) ->
          let reused = a.prepare env dag in
          List.for_all
            (fun deadline -> reused ~deadline = a.prepare env dag ~deadline)
            [ k; k / 3; k / 2; k ])
        Algo.deadline_all)

let prop_hetero_valid_on_random_grids =
  QCheck.Test.make ~name:"hressched valid on random grids" ~count:20 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let n_sites = 1 + Rng.int rng 3 in
      let sites =
        List.init n_sites (fun k ->
            ( {
                Grid.name = "s" ^ string_of_int k;
                procs = 4 + Rng.int rng 28;
                speed = 0.5 +. Rng.float rng 2.;
              },
              [] ))
      in
      let grid = Grid.make sites in
      let dag = random_dag ~n:12 (seed + 7000) in
      List.for_all
        (fun bd -> Result.is_ok (Hressched.validate grid dag (Hressched.schedule ~bd grid dag)))
        [ Hressched.HBD_ALL; HBD_CPAR ])

let prop_bd_cpar_cpu_not_more_than_bd_all =
  QCheck.Test.make ~name:"BD_CPAR consumes no more CPU-hours than BD_ALL (statistically)"
    ~count:15 arb_seed (fun seed ->
      (* aggregate over a few instances: CPA-bounded allocations waste
         less work than unbounded ones *)
      let total bd =
        let acc = ref 0. in
        for k = 0 to 3 do
          let env = busy_env ((seed * 4) + k) in
          let dag = random_dag ~n:15 ((seed * 4) + k + 3000) in
          acc := !acc +. Schedule.cpu_hours (Ressched.schedule ~bd env dag)
        done;
        !acc
      in
      total BD_CPAR <= total BD_ALL +. 1e-6)

(* ------------------------------------------------------------------ *)
(* The two placement kernels against an exhaustive scan: every ⟨site,
   candidate⟩ asked with an unbounded query, the winner taken in a
   lexicographic order.  Random calendars on 1-3 sites, site speeds that
   scale the candidates' durations, random candidate bounds, ready times
   and deadlines, with the journal off and on.  Ties are made common:
   half the sites are empty and speeds come from a short list, so two
   sites often offer the same fit, and fast sites round neighbouring
   durations to the same value — so the early cuts, the bounded queries
   and both tie rules are all exercised. *)

let prop_kernels_match_exhaustive_scan =
  QCheck.Test.make ~name:"placement kernels match an exhaustive scan" ~count:300 arb_seed
    (fun seed ->
      let rng = Rng.create (seed + 9000) in
      let n_sites = 1 + Rng.int rng 3 in
      let cals =
        Array.init n_sites (fun _ ->
            let procs = 2 + Rng.int rng 30 in
            let rec add cal k =
              if k = 0 then cal
              else
                let start = Rng.int rng 50_000 in
                let r =
                  Reservation.make ~start ~finish:(start + 60 + Rng.int rng 8_000)
                    ~procs:(1 + Rng.int rng procs)
                in
                add (Option.value (Calendar.reserve_opt cal r) ~default:cal) (k - 1)
            in
            add (Calendar.create ~procs) (if Rng.bool rng then 0 else Rng.int rng 25))
      in
      let task =
        Task.make ~id:0
          ~seq:(float_of_int (60 + Rng.int rng (if Rng.bool rng then 600 else 20_000)))
          ~alpha:(Rng.float rng 0.5)
      in
      let cands =
        Array.map
          (fun cal ->
            let speed = [| 0.5; 1.; 2.; 3. |].(Rng.int rng 4) in
            let c = Task.candidates task ~max_np:(1 + Rng.int rng (Calendar.procs cal)) in
            let scale np = max 1 (int_of_float (ceil (Task.exec_time_f task np /. speed))) in
            { c with Task.durs = Array.map scale c.Task.nps })
          cals
      in
      (* every fit, as (site, start, finish, procs) *)
      let fits query =
        List.concat
          (List.init n_sites (fun site ->
               let { Task.nps; durs; _ } = cands.(site) in
               List.filter_map
                 (fun c ->
                   Option.map
                     (fun s -> (site, s, s + durs.(c), nps.(c)))
                     (query cals.(site) ~procs:nps.(c) ~dur:durs.(c)))
                 (List.init (Array.length nps) Fun.id)))
      in
      let best key = function
        | [] -> None
        | f :: fs -> Some (List.fold_left (fun a b -> if compare (key b) (key a) < 0 then b else a) f fs)
      in
      let both f = (f (), fst (Mp_forensics.Journal.record f)) in
      List.for_all
        (fun _ ->
          let ready = Rng.int rng 50_000 and dl = Rng.int rng 60_000 in
          let want_fwd =
            best
              (fun (site, _, fin, np) -> (fin, np, site))
              (fits (fun cal -> Calendar.earliest_fit cal ~after:ready))
          in
          let want_bwd =
            best
              (fun (site, s, _, np) -> (-s, np, site))
              (fits (fun cal -> Calendar.latest_fit cal ~earliest:0 ~finish_by:dl))
          in
          let fwd, fwd_j = both (fun () -> Ressched.place cals task ~ready ~cands) in
          let bwd, bwd_j = both (fun () -> Deadline.place_latest cals task ~dl ~cands) in
          Some fwd = want_fwd && Some fwd_j = want_fwd && bwd = want_bwd && bwd_j = want_bwd)
        (List.init 10 Fun.id))

(* ------------------------------------------------------------------ *)
(* What the tightest-deadline search guarantees for any probe, here the
   real (not monotone) RESSCHEDDL algorithms: the answer is met, and
   unless it is the search's first deadline, some deadline it probed
   within the resolution below the answer was missed. *)

let prop_tightest_answer_met_and_tight =
  QCheck.Test.make ~name:"tightest is met, with a miss within 60 s below" ~count:30 arb_seed
    (fun seed ->
      let env = busy_env seed in
      let dag = random_dag ~n:10 (seed + 10_000) in
      let lo = max 1 (Deadline.lower_bound env dag) in
      List.for_all
        (fun (a : Algo.deadline) ->
          let prepared = a.prepare env dag and missed = ref [] in
          let probe ~deadline =
            let r = prepared ~deadline in
            if r = None then missed := deadline :: !missed;
            r
          in
          match Deadline.tightest probe env dag with
          | None -> true
          | Some (k, sched) ->
              Result.is_ok (Schedule.validate dag ~base:env.calendar ~deadline:k sched)
              && (k = lo || List.exists (fun m -> m < k && k - m <= 60) !missed))
        Algo.deadline_all)

(* ------------------------------------------------------------------ *)
(* The tightest-deadline search contract, against a threshold oracle:
   every deadline from [t] on is feasible.  Small values of [lo] let
   bisection midpoints land on the bracket's doubling points, and
   [lo < 1] searches from 1. *)

let prop_tightest_threshold =
  let gen =
    QCheck.Gen.(
      let* lo = oneof [ -2 -- 8; 1 -- 3000 ] in
      let* resolution = oneof [ 1 -- 3; 1 -- 200 ] in
      let start = max 1 lo in
      let* t =
        oneof
          [
            1 -- (4 * start);
            (let* k = 0 -- 22 and* d = -2 * resolution -- (2 * resolution) in
             return (max 1 ((start lsl k) + d)));
            1 -- (start lsl 22);
          ]
      in
      return (lo, resolution, t))
  in
  QCheck.Test.make ~name:"tightest meets a threshold to its resolution" ~count:500
    (QCheck.make ~print:QCheck.Print.(triple int int int) gen)
    (fun (lo, resolution, t) ->
      let start = max 1 lo in
      let asked = Hashtbl.create 64 and repeated = ref false in
      let oracle ~deadline =
        if Hashtbl.mem asked deadline then repeated := true;
        Hashtbl.replace asked deadline ();
        if deadline >= t then Some deadline else None
      in
      let answer = Deadline.search ~resolution ~lo oracle in
      (not !repeated)
      && (match answer with Some (k, met) -> k = met | None -> true)
      &&
      let answer = Option.map fst answer in
      if t <= start then answer = Some start
      else if t > start lsl 21 then answer = None
      else match answer with Some k -> t <= k && k < t + resolution | None -> false)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_ressched_valid;
        prop_deadline_valid_when_met;
        prop_ressched_respects_bounds;
        prop_deadline_slots_within_window;
        prop_turnaround_at_least_lower_bound;
        prop_prepared_reuse;
        prop_hetero_valid_on_random_grids;
        prop_bd_cpar_cpu_not_more_than_bd_all;
        prop_tightest_threshold;
        prop_kernels_match_exhaustive_scan;
        prop_tightest_answer_met_and_tight;
      ]
  in
  Alcotest.run "core"
    [
      ( "env",
        [
          Alcotest.test_case "clamps q" `Quick test_env_clamps_q;
          Alcotest.test_case "no reservations" `Quick test_env_no_reservations;
        ] );
      ( "bottom_level",
        [
          Alcotest.test_case "methods distinct" `Quick test_bl_methods_distinct;
          Alcotest.test_case "order topological" `Quick test_bl_order_topological;
          Alcotest.test_case "CPA = CPAR when q = p" `Quick test_bl_cpa_equals_cpar_when_q_is_p;
          Alcotest.test_case "algorithm names" `Quick test_ressched_name;
          Alcotest.test_case "slots exact duration" `Quick test_ressched_slots_exact_duration;
        ] );
      ( "bound",
        [
          Alcotest.test_case "ranges" `Quick test_bounds_ranges;
          Alcotest.test_case "half" `Quick test_bd_half;
          Alcotest.test_case "cpar <= all" `Quick test_bd_cpar_smaller_than_all;
          Alcotest.test_case "icaslb bounds" `Quick test_bd_icaslb_bounds;
        ] );
      ( "ressched",
        [
          Alcotest.test_case "all combos valid" `Quick test_ressched_valid_all_combos;
          Alcotest.test_case "empty calendar = CPA" `Quick test_ressched_empty_calendar_is_cpa_like;
          Alcotest.test_case "avoids reservations" `Quick test_ressched_avoids_reservations;
          Alcotest.test_case "uses holes" `Quick test_ressched_uses_hole;
          Alcotest.test_case "deterministic" `Quick test_ressched_deterministic;
          Alcotest.test_case "two-task DAG" `Quick test_ressched_single_task_dag;
          Alcotest.test_case "one-processor platform" `Quick test_ressched_one_processor_platform;
          Alcotest.test_case "registry" `Quick test_algo_registry;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "meets deadline" `Quick test_deadline_meets_deadline;
          Alcotest.test_case "impossible deadline" `Quick test_deadline_impossible;
          Alcotest.test_case "zero deadline" `Quick test_deadline_zero;
          Alcotest.test_case "rc saves cpu" `Quick test_deadline_rc_saves_cpu;
          Alcotest.test_case "tightest feasible" `Quick test_deadline_tightest_is_feasible;
          Alcotest.test_case "tightest from the lower bound" `Quick test_tightest_from_lower_bound;
          Alcotest.test_case "monotone in K" `Quick test_deadline_monotone_in_k;
          Alcotest.test_case "hybrid lambda bounds" `Quick test_hybrid_lambda_bounds;
          Alcotest.test_case "hybrid loose -> lambda 0" `Quick test_hybrid_loose_uses_lambda_zero;
          Alcotest.test_case "rc invalid lambda" `Quick test_rc_invalid_lambda;
          Alcotest.test_case "backward precedence" `Quick test_deadline_backward_precedence;
        ] );
      ( "blind",
        [
          Alcotest.test_case "matches omniscient (large budget)" `Quick
            test_blind_matches_omniscient_with_large_budget;
          Alcotest.test_case "valid with small budgets" `Quick test_blind_valid_with_small_budget;
          Alcotest.test_case "budget improves quality" `Quick test_blind_budget_improves_quality;
          Alcotest.test_case "counts probes" `Quick test_blind_counts_probes;
          Alcotest.test_case "invalid budget" `Quick test_blind_invalid_budget;
        ] );
      ( "hressched",
        [
          Alcotest.test_case "valid schedules" `Quick test_hetero_valid;
          Alcotest.test_case "prefers fast site" `Quick test_hetero_prefers_fast_site;
          Alcotest.test_case "avoids reserved site" `Quick test_hetero_avoids_reserved_site;
          Alcotest.test_case "single site = homogeneous" `Quick
            test_hetero_single_site_matches_homogeneous;
          Alcotest.test_case "single site = homogeneous, backward" `Quick
            test_hetero_single_site_deadline_matches_homogeneous;
          Alcotest.test_case "cpar cheaper than all" `Quick test_hetero_cpar_cheaper_than_all;
          Alcotest.test_case "speed scaling" `Quick test_hetero_speed_scaling;
          Alcotest.test_case "deadline meets" `Quick test_hetero_deadline_meets;
          Alcotest.test_case "deadline impossible" `Quick test_hetero_deadline_impossible;
          Alcotest.test_case "tightest" `Quick test_hetero_tightest;
        ] );
      ( "online",
        [
          Alcotest.test_case "no events = frozen" `Quick test_online_no_events_is_ressched;
          Alcotest.test_case "valid with events" `Quick test_online_with_events_valid;
          Alcotest.test_case "interference hurts" `Quick test_online_interference_hurts;
        ] );
      ("properties", props);
    ]

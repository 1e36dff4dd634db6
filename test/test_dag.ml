open Mp_dag
module Rng = Mp_prelude.Rng

(* A small hand-built diamond DAG:
     0 -> 1 -> 3
     0 -> 2 -> 3
   with known weights. *)
let diamond ?(seq = [| 100.; 200.; 300.; 400. |]) () =
  let tasks = Array.mapi (fun id s -> Task.make ~id ~seq:s ~alpha:0.) seq in
  Dag.make tasks [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let chain n =
  let tasks = Array.init n (fun id -> Task.make ~id ~seq:100. ~alpha:0.1) in
  Dag.make tasks (List.init (n - 1) (fun i -> (i, i + 1)))

(* ------------------------------------------------------------------ *)
(* Task *)

let test_task_amdahl () =
  let t = Task.make ~id:0 ~seq:1000. ~alpha:0.1 in
  Alcotest.(check int) "1 proc" 1000 (Task.exec_time t 1);
  (* 1000 * (0.1 + 0.9/2) = 550 *)
  Alcotest.(check int) "2 procs" 550 (Task.exec_time t 2);
  (* 1000 * (0.1 + 0.9/10) = 190 *)
  Alcotest.(check int) "10 procs" 190 (Task.exec_time t 10)

let test_task_fully_parallel () =
  let t = Task.make ~id:0 ~seq:100. ~alpha:0. in
  Alcotest.(check int) "100 procs" 1 (Task.exec_time t 100)

let test_task_fully_sequential () =
  let t = Task.make ~id:0 ~seq:100. ~alpha:1. in
  Alcotest.(check int) "no speedup" 100 (Task.exec_time t 64)

let test_task_exec_monotone () =
  let t = Task.make ~id:0 ~seq:5000. ~alpha:0.23 in
  for np = 1 to 63 do
    if Task.exec_time t np < Task.exec_time t (np + 1) then
      Alcotest.failf "exec_time increased from np=%d to %d" np (np + 1)
  done

let test_task_work_monotone () =
  let t = Task.make ~id:0 ~seq:5000. ~alpha:0.23 in
  for np = 1 to 63 do
    if Task.work t np > Task.work t (np + 1) then
      Alcotest.failf "work decreased from np=%d to %d" np (np + 1)
  done

let test_task_invalid () =
  Alcotest.check_raises "seq <= 0" (Invalid_argument "Task.make: seq <= 0") (fun () ->
      ignore (Task.make ~id:0 ~seq:0. ~alpha:0.5));
  Alcotest.check_raises "alpha > 1" (Invalid_argument "Task.make: alpha not in [0,1]") (fun () ->
      ignore (Task.make ~id:0 ~seq:1. ~alpha:1.5));
  (* NaN slips past ordered comparisons, and [exec_time] would turn NaN,
     infinities and huge times into 1-second tasks *)
  List.iter
    (fun (name, seq, msg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Task.make ~id:0 ~seq ~alpha:0.1)))
    [
      ("seq NaN", Float.nan, "Task.make: seq is NaN or infinite");
      ("seq inf", Float.infinity, "Task.make: seq is NaN or infinite");
      ("seq -inf", Float.neg_infinity, "Task.make: seq is NaN or infinite");
      ("seq -1e300", -1e300, "Task.make: seq <= 0");
      ("seq 2^53", 0x1p53, "Task.make: seq >= 2^53 s");
      ("seq 1e300", 1e300, "Task.make: seq >= 2^53 s");
    ];
  Alcotest.check_raises "alpha NaN" (Invalid_argument "Task.make: alpha is NaN") (fun () ->
      ignore (Task.make ~id:0 ~seq:100. ~alpha:Float.nan));
  let t = Task.make ~id:0 ~seq:(Float.pred 0x1p53) ~alpha:1. in
  Alcotest.(check int) "largest seq is exact" ((1 lsl 53) - 1) (Task.exec_time t 1)

let test_task_min_one_second () =
  let t = Task.make ~id:0 ~seq:0.5 ~alpha:0. in
  Alcotest.(check int) "at least 1s" 1 (Task.exec_time t 4)

(* ------------------------------------------------------------------ *)
(* Dag *)

let test_dag_diamond_structure () =
  let d = diamond () in
  Alcotest.(check int) "n" 4 (Dag.n d);
  Alcotest.(check int) "edges" 4 (Dag.n_edges d);
  Alcotest.(check int) "entry" 0 (Dag.entry d);
  Alcotest.(check int) "exit" 3 (Dag.exit_ d);
  Alcotest.(check (array int)) "succs of 0" [| 1; 2 |] (Dag.succs d 0);
  Alcotest.(check (array int)) "preds of 3" [| 1; 2 |] (Dag.preds d 3)

let test_dag_topo_valid () =
  let d = diamond () in
  let order = Dag.topological_order d in
  let pos = Array.make (Dag.n d) 0 in
  Array.iteri (fun k i -> pos.(i) <- k) order;
  List.iter
    (fun (i, j) ->
      if pos.(i) >= pos.(j) then Alcotest.failf "topo violates edge (%d, %d)" i j)
    (Dag.edges d)

let test_dag_rejects_cycle () =
  (* 0 -> 1 <-> 2 -> 3: unique source and sink, but 1 and 2 form a cycle. *)
  let tasks = Array.init 4 (fun id -> Task.make ~id ~seq:1. ~alpha:0.) in
  Alcotest.check_raises "cycle" (Invalid_argument "Dag.make: graph has a cycle") (fun () ->
      ignore (Dag.make tasks [ (0, 1); (1, 2); (2, 1); (2, 3) ]))

let test_dag_rejects_self_loop () =
  let tasks = Array.init 2 (fun id -> Task.make ~id ~seq:1. ~alpha:0.) in
  Alcotest.check_raises "self-loop" (Invalid_argument "Dag.make: self-loop") (fun () ->
      ignore (Dag.make tasks [ (0, 0); (0, 1) ]))

let test_dag_rejects_multi_entry () =
  let tasks = Array.init 3 (fun id -> Task.make ~id ~seq:1. ~alpha:0.) in
  Alcotest.check_raises "two entries" (Invalid_argument "Dag.make: DAG must have a single entry task")
    (fun () -> ignore (Dag.make tasks [ (0, 2); (1, 2) ]))

let test_dag_rejects_duplicate_edge () =
  let tasks = Array.init 2 (fun id -> Task.make ~id ~seq:1. ~alpha:0.) in
  Alcotest.check_raises "dup" (Invalid_argument "Dag.make: duplicate edge") (fun () ->
      ignore (Dag.make tasks [ (0, 1); (0, 1) ]))

let test_dag_sub_suffix () =
  let d = diamond () in
  (* Keep tasks 1, 2, 3: two sources -> virtual entry added. *)
  let keep = [| false; true; true; true |] in
  match Dag.sub d ~keep with
  | None -> Alcotest.fail "expected Some"
  | Some (sub, mapping) ->
      Alcotest.(check int) "5 tasks with virtual entry" 4 (Dag.n sub);
      let olds = Array.to_list mapping in
      Alcotest.(check bool) "has virtual" true (List.mem (-1) olds);
      Alcotest.(check bool) "kept 1 2 3" true
        (List.mem 1 olds && List.mem 2 olds && List.mem 3 olds)

let test_dag_sub_empty () =
  let d = diamond () in
  Alcotest.(check bool) "none kept" true (Dag.sub d ~keep:[| false; false; false; false |] = None)

let test_dag_to_dot () =
  let d = diamond () in
  let dot = Dag.to_dot d in
  Alcotest.(check bool) "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph")

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_bottom_levels_diamond () =
  let d = diamond () in
  let weights = [| 100.; 200.; 300.; 400. |] in
  let bl = Analysis.bottom_levels d ~weights in
  Alcotest.(check (float 1e-9)) "exit" 400. bl.(3);
  Alcotest.(check (float 1e-9)) "mid 1" 600. bl.(1);
  Alcotest.(check (float 1e-9)) "mid 2" 700. bl.(2);
  Alcotest.(check (float 1e-9)) "entry = cp" 800. bl.(0);
  Alcotest.(check (float 1e-9)) "cp_length" 800. (Analysis.cp_length d ~weights)

let test_top_levels_diamond () =
  let d = diamond () in
  let weights = [| 100.; 200.; 300.; 400. |] in
  let tl = Analysis.top_levels d ~weights in
  Alcotest.(check (float 1e-9)) "entry" 0. tl.(0);
  Alcotest.(check (float 1e-9)) "mid 1" 100. tl.(1);
  Alcotest.(check (float 1e-9)) "mid 2" 100. tl.(2);
  Alcotest.(check (float 1e-9)) "exit" 400. tl.(3)

let test_critical_path_diamond () =
  let d = diamond () in
  let weights = [| 100.; 200.; 300.; 400. |] in
  Alcotest.(check (list int)) "path through 2" [ 0; 2; 3 ] (Analysis.critical_path d ~weights)

let test_on_critical_path () =
  let d = diamond () in
  let weights = [| 100.; 200.; 300.; 400. |] in
  let cp = Analysis.on_critical_path d ~weights in
  Alcotest.(check (array bool)) "cp mask" [| true; false; true; true |] cp

let test_levels_diamond () =
  let d = diamond () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] (Analysis.levels d);
  Alcotest.(check (array int)) "widths" [| 1; 2; 1 |] (Analysis.level_widths d);
  Alcotest.(check int) "width" 2 (Analysis.width d)

let test_total_work () =
  let d = diamond ~seq:[| 100.; 100.; 100.; 100. |] () in
  let allocs = [| 1; 1; 1; 1 |] in
  Alcotest.(check (float 1e-9)) "work with alpha=0" 400. (Analysis.total_work d ~allocs);
  Alcotest.(check (float 1e-9)) "area" 100. (Analysis.average_area d ~allocs ~p:4)

(* Brute-force longest path by enumerating all paths (small DAGs only). *)
let brute_force_cp dag ~weights =
  let rec longest i =
    let succs = Dag.succs dag i in
    let best = Array.fold_left (fun acc j -> Float.max acc (longest j)) 0. succs in
    weights.(i) +. best
  in
  longest (Dag.entry dag)

(* ------------------------------------------------------------------ *)
(* Generator properties *)

let arb_params =
  QCheck.make
    ~print:(fun (p : Dag_gen.params) -> Format.asprintf "%a" Dag_gen.pp_params p)
    QCheck.Gen.(
      let* n = 3 -- 60 in
      let* alpha = float_range 0.01 1.0 in
      let* width = float_range 0.05 1.0 in
      let* regularity = float_range 0.05 1.0 in
      let* density = float_range 0.05 1.0 in
      let* jump = 1 -- 4 in
      return { Dag_gen.n; alpha; width; regularity; density; jump })

let gen_dag_of_seed (params : Dag_gen.params) seed = Dag_gen.generate (Rng.create seed) params

let prop_gen_structure =
  QCheck.Test.make ~name:"generated DAGs are valid and sized n" ~count:200
    QCheck.(pair arb_params small_int)
    (fun (params, seed) ->
      let d = gen_dag_of_seed params seed in
      Dag.n d = params.n
      && Array.length (Dag.preds d (Dag.entry d)) = 0
      && Array.length (Dag.succs d (Dag.exit_ d)) = 0)

let prop_gen_alpha_bounded =
  QCheck.Test.make ~name:"generated alphas within [0, alpha]" ~count:100
    QCheck.(pair arb_params small_int)
    (fun (params, seed) ->
      let d = gen_dag_of_seed params seed in
      Array.for_all
        (fun (tk : Task.t) -> tk.alpha >= 0. && tk.alpha <= params.alpha +. 1e-9)
        (Dag.tasks d))

let prop_gen_seq_bounded =
  QCheck.Test.make ~name:"sequential times within [60s, 10h]" ~count:100
    QCheck.(pair arb_params small_int)
    (fun (params, seed) ->
      let d = gen_dag_of_seed params seed in
      Array.for_all (fun (tk : Task.t) -> tk.seq >= 60. && tk.seq <= 36_000.) (Dag.tasks d))

let prop_gen_layered_when_jump_one =
  (* With jump = 1 the generator produces a layered DAG: every inner task
     has a predecessor in the previous generation level, so recomputed
     longest-path levels make every inner edge span exactly one level. *)
  QCheck.Test.make ~name:"jump=1 yields a layered DAG" ~count:100
    QCheck.(pair arb_params small_int)
    (fun (params, seed) ->
      let params = { params with jump = 1 } in
      let d = gen_dag_of_seed params seed in
      let lev = Analysis.levels d in
      List.for_all
        (fun (i, j) -> j = Dag.exit_ d || lev.(j) - lev.(i) = 1)
        (Dag.edges d))

let prop_gen_deterministic =
  QCheck.Test.make ~name:"same seed, same DAG" ~count:50
    QCheck.(pair arb_params small_int)
    (fun (params, seed) ->
      let d1 = gen_dag_of_seed params seed and d2 = gen_dag_of_seed params seed in
      Dag.edges d1 = Dag.edges d2 && Dag.tasks d1 = Dag.tasks d2)

let prop_bottom_level_matches_brute_force =
  QCheck.Test.make ~name:"cp_length matches path enumeration" ~count:50
    QCheck.(pair arb_params small_int)
    (fun (params, seed) ->
      let params = { params with n = min params.n 16 } in
      let d = gen_dag_of_seed params seed in
      let weights = Array.map (fun (tk : Task.t) -> tk.seq) (Dag.tasks d) in
      Float.abs (Analysis.cp_length d ~weights -. brute_force_cp d ~weights) < 1e-6)

let prop_width_chains_vs_forks =
  QCheck.Test.make ~name:"wider parameter gives at least as much parallelism on average" ~count:20
    QCheck.small_int
    (fun seed ->
      let narrow = { Dag_gen.default with width = 0.1; n = 50 } in
      let wide = { Dag_gen.default with width = 0.9; n = 50 } in
      let w_of p s = Analysis.width (gen_dag_of_seed p (s * 7919)) in
      (* compare averages over a few draws to avoid flakiness *)
      let avg p =
        let total = ref 0 in
        for k = 1 to 5 do
          total := !total + w_of p ((seed * 5) + k)
        done;
        !total
      in
      avg narrow < avg wide)

let test_analysis_invalid_args () =
  let d = diamond () in
  Alcotest.check_raises "weights mismatch" (Invalid_argument "Analysis: weights length mismatch")
    (fun () -> ignore (Analysis.bottom_levels d ~weights:[| 1. |]));
  Alcotest.check_raises "allocs mismatch"
    (Invalid_argument "Analysis.total_work: allocs length mismatch") (fun () ->
      ignore (Analysis.total_work d ~allocs:[| 1 |]));
  Alcotest.check_raises "area p<=0" (Invalid_argument "Analysis.average_area: p <= 0") (fun () ->
      ignore (Analysis.average_area d ~allocs:[| 1; 1; 1; 1 |] ~p:0))

let test_alloc_candidates () =
  let t = Task.make ~id:0 ~seq:1000. ~alpha:0.1 in
  let cands = Task.alloc_candidates t ~max_np:32 in
  (* ascending, starts at 1, within bound *)
  Alcotest.(check int) "starts at 1" 1 (List.hd cands);
  Alcotest.(check bool) "ascending" true (List.sort compare cands = cands);
  Alcotest.(check bool) "within bound" true (List.for_all (fun np -> np <= 32) cands);
  (* consecutive candidates have strictly decreasing durations *)
  let durs = List.map (Task.exec_time t) cands in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly decreasing durations" true (strictly_decreasing durs);
  (* every duration in 1..32 is achieved by some candidate *)
  for np = 1 to 32 do
    let d = Task.exec_time t np in
    if not (List.mem d durs) then Alcotest.failf "duration %d (np=%d) not covered" d np
  done;
  Alcotest.check_raises "max_np < 1" (Invalid_argument "Task.alloc_candidates: max_np < 1")
    (fun () -> ignore (Task.alloc_candidates t ~max_np:0))

let test_candidates_table () =
  (* The cached table must be exactly the alloc_candidates scan plus the
     matching rounded durations. *)
  let t = Task.make ~id:0 ~seq:1000. ~alpha:0.1 in
  let c = Task.candidates t ~max_np:32 in
  Alcotest.(check int) "bound recorded" 32 c.Task.bound;
  Alcotest.(check (list int)) "same counts" (Task.alloc_candidates t ~max_np:32)
    (Array.to_list c.Task.nps);
  Alcotest.(check (list int)) "durations match exec_time"
    (List.map (Task.exec_time t) (Array.to_list c.Task.nps))
    (Array.to_list c.Task.durs);
  Alcotest.check_raises "max_np < 1" (Invalid_argument "Task.candidates: max_np < 1") (fun () ->
      ignore (Task.candidates t ~max_np:0))

(* ------------------------------------------------------------------ *)
(* Classic workflows *)

let test_workflow_chain () =
  let d = Workflows.chain (Rng.create 1) ~n:8 () in
  Alcotest.(check int) "n" 8 (Dag.n d);
  Alcotest.(check int) "width" 1 (Analysis.width d)

let test_workflow_fork_join () =
  let d = Workflows.fork_join (Rng.create 2) ~branches:5 ~stages:3 () in
  (* entry + 3 x (5 branches + 1 sync) *)
  Alcotest.(check int) "n" (1 + (3 * 6)) (Dag.n d);
  Alcotest.(check int) "width" 5 (Analysis.width d)

let test_workflow_fft () =
  let m = 4 in
  let d = Workflows.fft (Rng.create 3) ~m () in
  let width = 1 lsl m in
  (* (m+1) layers of 2^m tasks + entry + exit *)
  Alcotest.(check int) "n" (((m + 1) * width) + 2) (Dag.n d);
  Alcotest.(check int) "width" width (Analysis.width d);
  (* every non-funnel task in layers 1..m has exactly two predecessors *)
  let two_preds = ref 0 in
  for i = 0 to Dag.n d - 1 do
    if Array.length (Dag.preds d i) = 2 then incr two_preds
  done;
  Alcotest.(check int) "butterfly in-degree" (m * width) !two_preds

let test_workflow_strassen () =
  let d = Workflows.strassen (Rng.create 4) ~levels:2 () in
  (* level 2: 1 root (split+combine) + 7 children (split+combine) = 16 *)
  Alcotest.(check int) "n" 16 (Dag.n d);
  Alcotest.(check int) "7 parallel multiplies" 7 (Analysis.width d)

let test_workflow_gaussian () =
  let n = 5 in
  let d = Workflows.gaussian (Rng.create 5) ~n () in
  (* pivots: n-1; updates: sum_{k=0}^{n-2} (n-1-k) = 4+3+2+1 = 10 *)
  Alcotest.(check int) "n" (4 + 10) (Dag.n d);
  (* parallelism shrinks: first update level is the widest *)
  Alcotest.(check int) "width" (n - 1) (Analysis.width d)

let test_workflow_wavefront () =
  let d = Workflows.wavefront (Rng.create 6) ~rows:4 ~cols:6 () in
  Alcotest.(check int) "n" 24 (Dag.n d);
  (* widest anti-diagonal of a 4x6 grid has 4 cells *)
  Alcotest.(check int) "width" 4 (Analysis.width d)

let test_workflow_all_named_valid () =
  List.iter
    (fun (name, d) ->
      (* Dag.make already validated; check single entry/exit explicitly *)
      if Array.length (Dag.preds d (Dag.entry d)) <> 0 then Alcotest.failf "%s: entry has preds" name;
      if Array.length (Dag.succs d (Dag.exit_ d)) <> 0 then Alcotest.failf "%s: exit has succs" name;
      if Dag.n d < 3 then Alcotest.failf "%s: degenerate" name)
    (Workflows.all_named (Rng.create 7))

let test_workflow_invalid_args () =
  Alcotest.check_raises "chain n<2" (Invalid_argument "Workflows.chain: n < 2") (fun () ->
      ignore (Workflows.chain (Rng.create 1) ~n:1 ()));
  Alcotest.check_raises "fft m>8" (Invalid_argument "Workflows.fft: m outside [1, 8]") (fun () ->
      ignore (Workflows.fft (Rng.create 1) ~m:9 ()))

let prop_candidates_match_alloc_candidates =
  QCheck.Test.make ~name:"cached candidate tables == direct alloc_candidates" ~count:200
    QCheck.(triple (1 -- 128) (60 -- 36_000) (0 -- 100))
    (fun (max_np, seq_s, alpha_pct) ->
      let t = Task.make ~id:0 ~seq:(float_of_int seq_s) ~alpha:(float_of_int alpha_pct /. 100.) in
      let c = Task.candidates t ~max_np in
      c.Task.bound = max_np
      && Array.to_list c.Task.nps = Task.alloc_candidates t ~max_np
      && Array.to_list c.Task.durs
         = List.map (Task.exec_time t) (Array.to_list c.Task.nps))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_gen_structure;
        prop_gen_alpha_bounded;
        prop_gen_seq_bounded;
        prop_gen_layered_when_jump_one;
        prop_gen_deterministic;
        prop_bottom_level_matches_brute_force;
        prop_width_chains_vs_forks;
        prop_candidates_match_alloc_candidates;
      ]
  in
  Alcotest.run "dag"
    [
      ( "task",
        [
          Alcotest.test_case "amdahl" `Quick test_task_amdahl;
          Alcotest.test_case "fully parallel" `Quick test_task_fully_parallel;
          Alcotest.test_case "fully sequential" `Quick test_task_fully_sequential;
          Alcotest.test_case "exec monotone" `Quick test_task_exec_monotone;
          Alcotest.test_case "work monotone" `Quick test_task_work_monotone;
          Alcotest.test_case "invalid" `Quick test_task_invalid;
          Alcotest.test_case "min one second" `Quick test_task_min_one_second;
        ] );
      ( "dag",
        [
          Alcotest.test_case "diamond structure" `Quick test_dag_diamond_structure;
          Alcotest.test_case "topo valid" `Quick test_dag_topo_valid;
          Alcotest.test_case "rejects cycle" `Quick test_dag_rejects_cycle;
          Alcotest.test_case "rejects self-loop" `Quick test_dag_rejects_self_loop;
          Alcotest.test_case "rejects multi-entry" `Quick test_dag_rejects_multi_entry;
          Alcotest.test_case "rejects duplicate edge" `Quick test_dag_rejects_duplicate_edge;
          Alcotest.test_case "sub suffix" `Quick test_dag_sub_suffix;
          Alcotest.test_case "sub empty" `Quick test_dag_sub_empty;
          Alcotest.test_case "to_dot" `Quick test_dag_to_dot;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "bottom levels" `Quick test_bottom_levels_diamond;
          Alcotest.test_case "top levels" `Quick test_top_levels_diamond;
          Alcotest.test_case "critical path" `Quick test_critical_path_diamond;
          Alcotest.test_case "on critical path" `Quick test_on_critical_path;
          Alcotest.test_case "levels" `Quick test_levels_diamond;
          Alcotest.test_case "total work" `Quick test_total_work;
          Alcotest.test_case "invalid args" `Quick test_analysis_invalid_args;
          Alcotest.test_case "alloc candidates" `Quick test_alloc_candidates;
          Alcotest.test_case "candidates table" `Quick test_candidates_table;
        ] );
      ("generator", props);
      ( "workflows",
        [
          Alcotest.test_case "chain" `Quick test_workflow_chain;
          Alcotest.test_case "fork-join" `Quick test_workflow_fork_join;
          Alcotest.test_case "fft butterfly" `Quick test_workflow_fft;
          Alcotest.test_case "strassen" `Quick test_workflow_strassen;
          Alcotest.test_case "gaussian" `Quick test_workflow_gaussian;
          Alcotest.test_case "wavefront" `Quick test_workflow_wavefront;
          Alcotest.test_case "all named valid" `Quick test_workflow_all_named_valid;
          Alcotest.test_case "invalid args" `Quick test_workflow_invalid_args;
        ] );
      ("chain", [ Alcotest.test_case "chain shape" `Quick (fun () ->
        let d = chain 5 in
        Alcotest.(check int) "width 1" 1 (Analysis.width d);
        Alcotest.(check int) "entry" 0 (Dag.entry d);
        Alcotest.(check int) "exit" 4 (Dag.exit_ d)) ]);
    ]

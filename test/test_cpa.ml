open Mp_cpa
module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Analysis = Mp_dag.Analysis
module Dag_gen = Mp_dag.Dag_gen
module Rng = Mp_prelude.Rng
module Calendar = Mp_platform.Calendar

let diamond () =
  let tasks = Array.mapi (fun id s -> Task.make ~id ~seq:s ~alpha:0.1) [| 100.; 200.; 300.; 400. |] in
  Dag.make tasks [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let random_dag ?(n = 30) seed =
  Dag_gen.generate (Rng.create seed) { Dag_gen.default with n }

(* ------------------------------------------------------------------ *)
(* Allocation *)

let test_alloc_bounds () =
  let d = random_dag 1 in
  List.iter
    (fun criterion ->
      let allocs = Allocation.allocate ~criterion ~p:32 d in
      Array.iter
        (fun a -> if a < 1 || a > 32 then Alcotest.failf "allocation %d outside [1, 32]" a)
        allocs)
    [ Allocation.Classic; Allocation.Improved ]

let test_alloc_single_proc () =
  let d = random_dag 2 in
  let allocs = Allocation.allocate ~p:1 d in
  Alcotest.(check bool) "all ones" true (Array.for_all (fun a -> a = 1) allocs)

let test_alloc_reduces_cp () =
  let d = random_dag 3 in
  let p = 64 in
  let ones = Array.make (Dag.n d) 1 in
  let allocs = Allocation.allocate ~p d in
  let cp_of a = Analysis.cp_length d ~weights:(Allocation.weights d ~allocs:a) in
  Alcotest.(check bool) "cp shrinks or stays" true (cp_of allocs <= cp_of ones +. 1e-9)

let test_alloc_improved_not_larger () =
  (* The improved criterion caps allocations, so its total work should not
     exceed Classic's. *)
  let d = random_dag 4 in
  let p = 64 in
  let work c = Analysis.total_work d ~allocs:(Allocation.allocate ~criterion:c ~p d) in
  Alcotest.(check bool) "improved uses <= work" true
    (work Allocation.Improved <= work Allocation.Classic +. 1e-9)

let test_alloc_deterministic () =
  let d = random_dag 17 in
  Alcotest.(check bool) "same allocations" true
    (Allocation.allocate ~p:16 d = Allocation.allocate ~p:16 d)

let test_alloc_improved_level_cap () =
  (* The improved criterion caps each task at ceil(p / width(level)). *)
  let d = random_dag ~n:40 18 in
  let p = 32 in
  let allocs = Allocation.allocate ~criterion:Allocation.Improved ~p d in
  let lev = Analysis.levels d in
  let widths = Analysis.level_widths d in
  Array.iteri
    (fun i a ->
      let cap = max 1 ((p + widths.(lev.(i)) - 1) / widths.(lev.(i))) in
      if a > cap then Alcotest.failf "task %d alloc %d exceeds level cap %d" i a cap)
    allocs

let test_alloc_invalid_p () =
  let d = diamond () in
  Alcotest.check_raises "p < 1" (Invalid_argument "Allocation.allocate: p < 1") (fun () ->
      ignore (Allocation.allocate ~p:0 d))

(* ------------------------------------------------------------------ *)
(* Mapping / Schedule *)

let check_valid dag sched ~p =
  match Schedule.validate dag ~base:(Calendar.create ~procs:p) sched with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_map_diamond_serial () =
  let d = diamond () in
  let sched = Mapping.map d ~allocs:[| 1; 1; 1; 1 |] ~p:1 in
  check_valid d sched ~p:1;
  (* On one processor everything serializes: makespan = total exec time. *)
  let expected =
    Array.fold_left (fun acc tk -> acc + Task.exec_time tk 1) 0 (Dag.tasks d)
  in
  Alcotest.(check int) "serialized makespan" expected (Schedule.turnaround sched)

let test_map_diamond_parallel () =
  let d = diamond () in
  let sched = Mapping.map d ~allocs:[| 1; 1; 1; 1 |] ~p:4 in
  check_valid d sched ~p:4;
  (* Tasks 1 and 2 overlap: makespan = t0 + max(t1, t2) + t3. *)
  let e i = Task.exec_time (Dag.task d i) 1 in
  Alcotest.(check int) "parallel makespan" (e 0 + max (e 1) (e 2) + e 3)
    (Schedule.turnaround sched)

let test_map_rejects_oversize_alloc () =
  let d = diamond () in
  Alcotest.check_raises "alloc > p" (Invalid_argument "Mapping.map: allocation outside [1, p]")
    (fun () -> ignore (Mapping.map d ~allocs:[| 1; 5; 1; 1 |] ~p:4))

let test_map_subset_all () =
  let d = diamond () in
  let keep = [| true; true; true; true |] in
  match Mapping.map_subset d ~allocs:[| 1; 1; 1; 1 |] ~p:4 ~keep with
  | None -> Alcotest.fail "expected Some"
  | Some starts ->
      Alcotest.(check int) "entry starts at 0" 0 starts.(0);
      Alcotest.(check bool) "all kept tasks have starts" true (Array.for_all (fun s -> s >= 0) starts)

let test_map_subset_suffix () =
  let d = diamond () in
  let keep = [| false; true; true; true |] in
  match Mapping.map_subset d ~allocs:[| 1; 1; 1; 1 |] ~p:4 ~keep with
  | None -> Alcotest.fail "expected Some"
  | Some starts ->
      Alcotest.(check int) "dropped task marked" (-1) starts.(0);
      Alcotest.(check bool) "exit after mids" true
        (starts.(3) >= starts.(1) && starts.(3) >= starts.(2))

let test_map_subset_none () =
  let d = diamond () in
  Alcotest.(check bool) "nothing kept" true
    (Mapping.map_subset d ~allocs:[| 1; 1; 1; 1 |] ~p:4 ~keep:[| false; false; false; false |] = None)

let test_schedule_metrics () =
  let d = diamond () in
  let sched = Mapping.map d ~allocs:[| 2; 2; 2; 2 |] ~p:4 in
  let expected_cpu =
    Array.fold_left (fun acc tk -> acc + Task.work tk 2) 0 (Dag.tasks d)
  in
  Alcotest.(check int) "cpu seconds" expected_cpu (Schedule.cpu_seconds sched);
  Alcotest.(check int) "reservations count" 4 (List.length (Schedule.reservations sched))

let test_schedule_to_json () =
  let d = diamond () in
  let sched = Mapping.map d ~allocs:[| 1; 1; 1; 1 |] ~p:4 in
  let competing = [ Mp_platform.Reservation.make ~start:1 ~finish:2 ~procs:1 ] in
  let s = Schedule.to_json ~competing sched in
  let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 s in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  (* 4 task objects + 1 competing object + the root *)
  Alcotest.(check int) "object count" 6 (count '{');
  let has_substr needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has turnaround" true (has_substr "\"turnaround\"" s);
  Alcotest.(check bool) "has competing" true (has_substr "\"competing\"" s)

let test_schedule_validate_catches_precedence () =
  let d = diamond () in
  let bad =
    {
      Schedule.slots =
        [|
          { start = 0; finish = 100; procs = 1 };
          { start = 50; finish = 250; procs = 1 };
          (* starts before its predecessor finishes *)
          { start = 100; finish = 400; procs = 1 };
          { start = 400; finish = 800; procs = 1 };
        |];
    }
  in
  match Schedule.validate d ~base:(Calendar.create ~procs:4) bad with
  | Ok () -> Alcotest.fail "expected precedence error"
  | Error msg -> Alcotest.(check bool) "mentions precedence" true
      (String.length msg > 0)

let test_schedule_validate_catches_deadline () =
  let d = diamond () in
  let sched = Mapping.map d ~allocs:[| 1; 1; 1; 1 |] ~p:4 in
  match Schedule.validate d ~base:(Calendar.create ~procs:4) ~deadline:1 sched with
  | Ok () -> Alcotest.fail "expected deadline error"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* CPA end-to-end *)

let test_cpa_beats_sequential () =
  let d = random_dag ~n:40 5 in
  let p = 32 in
  let seq_makespan =
    Array.fold_left (fun acc tk -> acc + Task.exec_time tk 1) 0 (Dag.tasks d)
  in
  Alcotest.(check bool) "cpa < serialized" true (Cpa.makespan ~p d < seq_makespan)

let test_cpa_valid_schedules () =
  for seed = 10 to 15 do
    let d = random_dag seed in
    let sched = Cpa.schedule ~p:16 d in
    check_valid d sched ~p:16
  done

let test_mcpa_level_cap () =
  let d = random_dag ~n:40 6 in
  let p = 16 in
  let allocs = Mcpa.allocate ~p d in
  let lev = Analysis.levels d in
  let n_levels = 1 + Array.fold_left max 0 lev in
  let level_total = Array.make n_levels 0 in
  Array.iteri (fun i a -> level_total.(lev.(i)) <- level_total.(lev.(i)) + a) allocs;
  Array.iteri
    (fun l total -> if total > p then Alcotest.failf "level %d allocated %d > p=%d" l total p)
    level_total

let test_mcpa_schedule_valid () =
  let d = random_dag ~n:25 7 in
  let sched = Mcpa.schedule ~p:8 d in
  check_valid d sched ~p:8

(* ------------------------------------------------------------------ *)
(* iCASLB *)

let test_icaslb_valid () =
  let d = random_dag ~n:25 8 in
  let sched = Icaslb.schedule ~p:16 d in
  check_valid d sched ~p:16

let test_icaslb_allocs_in_range () =
  let d = random_dag ~n:25 9 in
  let allocs, _ = Icaslb.allocate_and_schedule ~p:8 d in
  Array.iter (fun a -> if a < 1 || a > 8 then Alcotest.failf "alloc %d outside [1, 8]" a) allocs

let test_icaslb_no_worse_than_sequential_allocs () =
  (* iCASLB starts from the all-ones mapping and keeps the best schedule,
     so it can never be worse than list scheduling with 1-proc tasks. *)
  let d = random_dag ~n:30 10 in
  let p = 16 in
  let ones = Mapping.map d ~allocs:(Array.make (Dag.n d) 1) ~p in
  let sched = Icaslb.schedule ~p d in
  Alcotest.(check bool) "icaslb <= all-ones" true
    (Schedule.turnaround sched <= Schedule.turnaround ones)

let test_icaslb_competitive_with_cpa () =
  (* Not guaranteed per instance, but across a few seeds iCASLB should be
     at least roughly competitive with CPA (the ICPP'06 paper reports it
     winning). *)
  let total_icaslb = ref 0 and total_cpa = ref 0 in
  for seed = 11 to 16 do
    let d = random_dag ~n:30 seed in
    total_icaslb := !total_icaslb + Schedule.turnaround (Icaslb.schedule ~p:16 d);
    total_cpa := !total_cpa + Schedule.turnaround (Cpa.schedule ~p:16 d)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "icaslb %d within 15%% of cpa %d" !total_icaslb !total_cpa)
    true
    (float_of_int !total_icaslb <= 1.15 *. float_of_int !total_cpa)

let test_icaslb_invalid_args () =
  let d = diamond () in
  Alcotest.check_raises "p < 1" (Invalid_argument "Icaslb: p < 1") (fun () ->
      ignore (Icaslb.schedule ~p:0 d))

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_seed_n = QCheck.(pair small_int (QCheck.make QCheck.Gen.(8 -- 40)))

let prop_mapping_valid =
  QCheck.Test.make ~name:"mapping produces valid schedules" ~count:60 arb_seed_n
    (fun (seed, n) ->
      let d = random_dag ~n seed in
      let p = 8 in
      let allocs = Allocation.allocate ~p d in
      let sched = Mapping.map d ~allocs ~p in
      Result.is_ok (Schedule.validate d ~base:(Calendar.create ~procs:p) sched))

let prop_mapping_uses_allocs =
  QCheck.Test.make ~name:"mapping honors allocations" ~count:60 arb_seed_n
    (fun (seed, n) ->
      let d = random_dag ~n seed in
      let p = 8 in
      let allocs = Allocation.allocate ~p d in
      let sched = Mapping.map d ~allocs ~p in
      Array.for_all
        (fun i -> Schedule.procs sched i = allocs.(i))
        (Array.init (Dag.n d) Fun.id))

let prop_cpa_respects_area_bound =
  QCheck.Test.make ~name:"cpa makespan >= area lower bound" ~count:60 arb_seed_n
    (fun (seed, n) ->
      let d = random_dag ~n seed in
      let p = 8 in
      let sched = Cpa.schedule ~p d in
      (* makespan can never beat total-work / p *)
      float_of_int (Schedule.turnaround sched)
      >= float_of_int (Schedule.cpu_seconds sched) /. float_of_int p -. 1.)

let prop_prefix_references_match_map_subset =
  (* Mapping.prefix_references must agree with a fresh map_subset per
     order-prefix: position k keeps exactly order.(0..k) and reads the
     start of order.(k).  Also exercises the on-demand memo by querying
     positions twice and out of order. *)
  QCheck.Test.make ~name:"prefix_references == fresh map_subset per prefix" ~count:40
    arb_seed_n
    (fun (seed, n) ->
      let d = random_dag ~n seed in
      let p = 8 in
      let allocs = Allocation.allocate ~p d in
      let order = Mapping.bl_order d ~weights:(Allocation.weights d ~allocs) in
      let refs = Mapping.prefix_references d ~allocs ~p ~order in
      let expected k =
        let keep = Array.make (Dag.n d) false in
        for j = 0 to k do
          keep.(order.(j)) <- true
        done;
        match Mapping.map_subset d ~allocs ~p ~keep with
        | Some starts -> starts.(order.(k))
        | None -> 0
      in
      let nb = Dag.n d in
      let ok = ref true in
      (* descending (the backward pass's access pattern) ... *)
      for k = nb - 1 downto 0 do
        if Mapping.reference_start refs k <> expected k then ok := false
      done;
      (* ... then re-read ascending: the memo must return the same values *)
      for k = 0 to nb - 1 do
        if Mapping.reference_start refs k <> expected k then ok := false
      done;
      !ok)

(* Reference CPA allocation loop: identical decision rule, but [bl] /
   [tl] are recomputed from scratch through the Analysis passes every
   iteration.  Allocation.allocate maintains them with in-place
   topological sweeps (and caches next-increment Amdahl times); the
   comment there claims that is bitwise equivalent, and this property
   pins it.  [min_gain] mirrors the constant in allocation.ml. *)
let reference_allocate ~criterion ~p d =
  let min_gain = 1e-4 in
  let nb = Dag.n d in
  let allocs = Array.make nb 1 in
  let caps =
    match criterion with
    | Allocation.Classic -> Array.make nb p
    | Allocation.Improved ->
        let lev = Analysis.levels d in
        let widths = Analysis.level_widths d in
        Array.init nb (fun i -> max 1 ((p + widths.(lev.(i)) - 1) / widths.(lev.(i))))
  in
  let tasks = Dag.tasks d in
  let w = Array.mapi (fun i tk -> Task.exec_time_f tk allocs.(i)) tasks in
  let total_work = ref 0. in
  Array.iteri (fun i wi -> total_work := !total_work +. (float_of_int allocs.(i) *. wi)) w;
  let rec loop () =
    let bl = Analysis.bottom_levels d ~weights:w in
    let tl = Analysis.top_levels d ~weights:w in
    let t_cp = bl.(Dag.entry d) in
    let t_a = !total_work /. float_of_int p in
    if t_cp <= t_a then ()
    else begin
      let eps = 1e-9 *. Float.max 1. t_cp in
      let best = ref None in
      for i = 0 to nb - 1 do
        if Float.abs (tl.(i) +. bl.(i) -. t_cp) <= eps && allocs.(i) < caps.(i) then begin
          let cur = w.(i) in
          let nxt = Task.exec_time_f tasks.(i) (allocs.(i) + 1) in
          let gain = (cur -. nxt) /. cur in
          let good =
            match criterion with
            | Allocation.Classic -> gain > 0.
            | Allocation.Improved -> gain > min_gain
          in
          if good then
            match !best with Some (_, g) when g >= gain -> () | _ -> best := Some (i, gain)
        end
      done;
      match !best with
      | None -> ()
      | Some (i, _) ->
          total_work := !total_work -. (float_of_int allocs.(i) *. w.(i));
          allocs.(i) <- allocs.(i) + 1;
          w.(i) <- Task.exec_time_f tasks.(i) allocs.(i);
          total_work := !total_work +. (float_of_int allocs.(i) *. w.(i));
          loop ()
    end
  in
  loop ();
  allocs

let prop_allocate_matches_reference =
  QCheck.Test.make ~name:"allocate == from-scratch reference (both criteria)" ~count:40
    arb_seed_n
    (fun (seed, n) ->
      let d = random_dag ~n seed in
      let p = 8 in
      List.for_all
        (fun criterion ->
          Allocation.allocate ~criterion ~p d = reference_allocate ~criterion ~p d)
        [ Allocation.Classic; Allocation.Improved ])

let prop_more_procs_no_worse =
  QCheck.Test.make ~name:"cpa makespan non-increasing in p (statistically)" ~count:30
    QCheck.small_int
    (fun seed ->
      let d = random_dag ~n:30 seed in
      (* Not guaranteed task by task, but p=32 should essentially never be
         beaten by p=2 for the same heuristic. *)
      Cpa.makespan ~p:32 d <= Cpa.makespan ~p:2 d)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_mapping_valid;
        prop_mapping_uses_allocs;
        prop_prefix_references_match_map_subset;
        prop_allocate_matches_reference;
        prop_cpa_respects_area_bound;
        prop_more_procs_no_worse;
      ]
  in
  Alcotest.run "cpa"
    [
      ( "allocation",
        [
          Alcotest.test_case "bounds" `Quick test_alloc_bounds;
          Alcotest.test_case "single proc" `Quick test_alloc_single_proc;
          Alcotest.test_case "reduces critical path" `Quick test_alloc_reduces_cp;
          Alcotest.test_case "improved not larger" `Quick test_alloc_improved_not_larger;
          Alcotest.test_case "deterministic" `Quick test_alloc_deterministic;
          Alcotest.test_case "improved level cap" `Quick test_alloc_improved_level_cap;
          Alcotest.test_case "invalid p" `Quick test_alloc_invalid_p;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "diamond serial" `Quick test_map_diamond_serial;
          Alcotest.test_case "diamond parallel" `Quick test_map_diamond_parallel;
          Alcotest.test_case "rejects oversize alloc" `Quick test_map_rejects_oversize_alloc;
          Alcotest.test_case "subset all" `Quick test_map_subset_all;
          Alcotest.test_case "subset suffix" `Quick test_map_subset_suffix;
          Alcotest.test_case "subset none" `Quick test_map_subset_none;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "metrics" `Quick test_schedule_metrics;
          Alcotest.test_case "json export" `Quick test_schedule_to_json;
          Alcotest.test_case "catches precedence violations" `Quick
            test_schedule_validate_catches_precedence;
          Alcotest.test_case "catches missed deadline" `Quick test_schedule_validate_catches_deadline;
        ] );
      ( "cpa",
        [
          Alcotest.test_case "beats sequential" `Quick test_cpa_beats_sequential;
          Alcotest.test_case "valid schedules" `Quick test_cpa_valid_schedules;
        ] );
      ( "mcpa",
        [
          Alcotest.test_case "level cap" `Quick test_mcpa_level_cap;
          Alcotest.test_case "valid schedule" `Quick test_mcpa_schedule_valid;
        ] );
      ( "icaslb",
        [
          Alcotest.test_case "valid schedule" `Quick test_icaslb_valid;
          Alcotest.test_case "allocs in range" `Quick test_icaslb_allocs_in_range;
          Alcotest.test_case "no worse than all-ones" `Quick test_icaslb_no_worse_than_sequential_allocs;
          Alcotest.test_case "competitive with cpa" `Quick test_icaslb_competitive_with_cpa;
          Alcotest.test_case "invalid args" `Quick test_icaslb_invalid_args;
        ] );
      ("properties", props);
    ]

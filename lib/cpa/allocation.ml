module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Analysis = Mp_dag.Analysis

type criterion = Classic | Improved

let c_calls = Mp_obs.Counter.make "cpa.allocate.calls"
let c_iterations = Mp_obs.Counter.make "cpa.iterations"
let t_allocate = Mp_obs.Timer.make "cpa.allocate"

let weights dag ~allocs =
  Array.mapi (fun i tk -> Task.exec_time_f tk allocs.(i)) (Dag.tasks dag)

(* Minimum relative gain for an increment to count under Improved; avoids
   burning processors on an Amdahl plateau. *)
let min_gain = 1e-4

(* Each iteration grows exactly one allocation by 1 from the all-ones
   start, so the iteration count is recoverable from the total. *)
let journal_alloc ~p allocs =
  if Mp_forensics.Journal.enabled () then begin
    let n_tasks = Array.length allocs and total_alloc = Array.fold_left ( + ) 0 allocs in
    Mp_forensics.Journal.cpa_alloc ~p ~iterations:(total_alloc - n_tasks) ~n_tasks ~total_alloc
  end

let allocate ?(criterion = Improved) ~p dag =
  if p < 1 then invalid_arg "Allocation.allocate: p < 1";
  Mp_obs.Counter.incr c_calls;
  let obs_t0 = Mp_obs.Timer.start () in
  let nb = Dag.n dag in
  let allocs = Array.make nb 1 in
  let caps =
    match criterion with
    | Classic -> Array.make nb p
    | Improved ->
        let lev = Analysis.levels dag in
        let widths = Analysis.level_widths dag in
        Array.init nb (fun i -> Int.max 1 ((p + widths.(lev.(i)) - 1) / widths.(lev.(i))))
  in
  let tasks = Dag.tasks dag in
  let w = weights dag ~allocs in
  (* Next-increment execution times, filled lazily and invalidated when a
     task's allocation grows: critical-path tasks are re-examined on many
     consecutive iterations, and their Amdahl evaluation is the scan's
     only non-trivial arithmetic.  (NaN = not cached; [exec_time_f] never
     returns NaN since [seq > 0].) *)
  let nxt_cache = Array.make nb Float.nan in
  let next_exec i =
    let v = nxt_cache.(i) in
    if Float.is_nan v then begin
      let v = Task.exec_time_f tasks.(i) (allocs.(i) + 1) in
      nxt_cache.(i) <- v;
      v
    end
    else v
  in
  (* Running total work, updated incrementally. *)
  let total_work = ref 0. in
  Array.iteri (fun i wi -> total_work := !total_work +. (float_of_int allocs.(i) *. wi)) w;
  (* Bottom/top levels, maintained incrementally across iterations: one
     increment changes a single weight, so only the ancestors (for [bl]) /
     the successors' cone (for [tl]) can move.  Each node is recomputed
     with the same per-node expression as the full Analysis passes — and
     [Float.max] / a single [+.] are exact, so propagation can stop the
     moment a recomputed value is bitwise unchanged: the result is
     identical to recomputing both arrays from scratch every iteration
     (pinned by the qcheck property in test_cpa.ml). *)
  let bl = Analysis.bottom_levels dag ~weights:w in
  let tl = Analysis.top_levels dag ~weights:w in
  let topo = Dag.topological_order dag in
  (* [w.(i)] just changed: recompute [bl] / [tl] with one in-place sweep
     each over the precomputed topological order.  Every node gets the same
     per-node expression as the full Analysis passes, so the arrays equal
     a from-scratch recomputation bitwise (pinned by the qcheck property
     in test_cpa.ml); at CPA's DAG sizes the plain sweeps beat any
     change-propagation bookkeeping.  *)
  let refresh _i =
    (* Accumulate maxima directly in the float arrays: a [fold_left] with a
       float accumulator boxes every step, and these two sweeps run once
       per increment.  [v > acc] keeps the first of equal values, like
       [Float.max acc v] with the operand order above — same bits (no NaN,
       no negative zero in level arithmetic). *)
    for k = nb - 1 downto 0 do
      let j = topo.(k) in
      let ss = Dag.succs dag j in
      bl.(j) <- 0.;
      for q = 0 to Array.length ss - 1 do
        let v = bl.(ss.(q)) in
        if v > bl.(j) then bl.(j) <- v
      done;
      bl.(j) <- bl.(j) +. w.(j)
    done;
    for k = 0 to nb - 1 do
      let j = topo.(k) in
      let ps = Dag.preds dag j in
      tl.(j) <- 0.;
      for q = 0 to Array.length ps - 1 do
        let v = tl.(ps.(q)) +. w.(ps.(q)) in
        if v > tl.(j) then tl.(j) <- v
      done
    done
  in
  let rec loop () =
    let t_cp = bl.(Dag.entry dag) in
    let t_a = !total_work /. float_of_int p in
    if t_cp <= t_a then ()
    else begin
      (* Pick the critical-path task with the best relative gain from one
         more processor, among tasks below their cap. *)
      let eps = 1e-9 *. Float.max 1. t_cp in
      let best = ref None in
      for i = 0 to nb - 1 do
        if Float.abs (tl.(i) +. bl.(i) -. t_cp) <= eps && allocs.(i) < caps.(i) then begin
          let cur = w.(i) in
          let nxt = next_exec i in
          let gain = (cur -. nxt) /. cur in
          let good =
            match criterion with Classic -> gain > 0. | Improved -> gain > min_gain
          in
          if good then begin
            match !best with
            | Some (_, g) when g >= gain -> ()
            | _ -> best := Some (i, gain)
          end
        end
      done;
      match !best with
      | None -> () (* no critical-path task can usefully grow: stop *)
      | Some (i, _) ->
          Mp_obs.Counter.incr c_iterations;
          total_work := !total_work -. (float_of_int allocs.(i) *. w.(i));
          allocs.(i) <- allocs.(i) + 1;
          (* the cached next-increment time is exactly the new weight *)
          w.(i) <- nxt_cache.(i);
          nxt_cache.(i) <- Float.nan;
          total_work := !total_work +. (float_of_int allocs.(i) *. w.(i));
          refresh i;
          loop ()
    end
  in
  loop ();
  Mp_obs.Timer.stop t_allocate obs_t0;
  journal_alloc ~p allocs;
  allocs

(* A reused allocation is journaled again, so the decision journal (and
   every explain report built from it) reads exactly as when each
   consumer ran its own. *)
let per_procs dag =
  let known = ref [] in
  fun p ->
    match List.assoc_opt p !known with
    | Some allocs ->
        journal_alloc ~p allocs;
        allocs
    | None ->
        let allocs = allocate ~p dag in
        known := (p, allocs) :: !known;
        allocs

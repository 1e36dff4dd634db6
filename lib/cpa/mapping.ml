module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Analysis = Mp_dag.Analysis
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation

let c_calls = Mp_obs.Counter.make "cpa.mapping.calls"
let c_placements = Mp_obs.Counter.make "cpa.mapping.placements"
let t_map = Mp_obs.Timer.make "cpa.map"

let bl_order dag ~weights =
  let bl = Analysis.bottom_levels dag ~weights in
  let idx = Array.init (Dag.n dag) (fun i -> i) in
  Array.sort
    (fun i j -> match compare bl.(j) bl.(i) with 0 -> compare i j | c -> c)
    idx;
  idx

let map dag ~allocs ~p =
  if Array.length allocs <> Dag.n dag then invalid_arg "Mapping.map: allocs length mismatch";
  Array.iter (fun a -> if a < 1 || a > p then invalid_arg "Mapping.map: allocation outside [1, p]") allocs;
  Mp_obs.Counter.incr c_calls;
  let obs_t0 = Mp_obs.Timer.start () in
  let weights = Allocation.weights dag ~allocs in
  let order = bl_order dag ~weights in
  let slots =
    Array.make (Dag.n dag) ({ start = 0; finish = 0; procs = 0 } : Schedule.slot)
  in
  let cal = ref (Calendar.create ~procs:p) in
  Array.iter
    (fun i ->
      let ready =
        Array.fold_left (fun acc j -> Int.max acc slots.(j).Schedule.finish) 0 (Dag.preds dag i)
      in
      let np = allocs.(i) in
      let dur = Task.exec_time (Dag.task dag i) np in
      match Calendar.earliest_fit !cal ~after:ready ~procs:np ~dur with
      | None -> assert false (* np <= p on an empty-calendar cluster always fits *)
      | Some s ->
          Mp_obs.Counter.incr c_placements;
          cal := Calendar.reserve !cal (Reservation.make ~start:s ~finish:(s + dur) ~procs:np);
          slots.(i) <- { start = s; finish = s + dur; procs = np })
    order;
  Mp_obs.Timer.stop t_map obs_t0;
  if Mp_forensics.Journal.enabled () then begin
    let makespan =
      Array.fold_left (fun acc (s : Schedule.slot) -> Int.max acc s.finish) 0 slots
    in
    Mp_forensics.Journal.cpa_map ~p ~n_tasks:(Dag.n dag) ~makespan
  end;
  { Schedule.slots }

let map_subset dag ~allocs ~p ~keep =
  match Dag.sub dag ~keep with
  | None -> None
  | Some (sub, mapping) ->
      let sub_allocs =
        Array.map (fun old_i -> if old_i >= 0 then Int.min p allocs.(old_i) else 1) mapping
      in
      let sched = map sub ~allocs:sub_allocs ~p in
      let starts = Array.make (Dag.n dag) (-1) in
      Array.iteri
        (fun new_i old_i -> if old_i >= 0 then starts.(old_i) <- Schedule.start sched new_i)
        mapping;
      Some starts

(* The resource-conservative backward pass consumes reference schedules of
   strict order-prefixes: at backward step [k] the unplaced set is exactly
   {order.(0), …, order.(k)}, and only the start of order.(k) is read.  So
   instead of rebuilding the sub-DAG (and its weights and bl-sort) per
   placement × per deadline probe, we peel tasks off a single [keep] array,
   from the full DAG down to the singleton prefix, and memoize one start
   value per position.  Positions are filled lazily in decreasing order —
   the same order the backward pass requests them — so a probe that fails
   early never pays for the prefixes it did not reach, and every later
   probe reads the memo for free. *)
type references = {
  r_dag : Dag.t;
  r_allocs : int array;
  r_p : int;
  r_order : int array;
  r_keep : bool array; (* keep.(order.(j)) = false for j >= r_next *)
  r_starts : int array; (* valid for positions >= r_next *)
  mutable r_next : int; (* lowest position computed so far *)
}

let prefix_references dag ~allocs ~p ~order =
  let n = Dag.n dag in
  if Array.length order <> n then
    invalid_arg "Mapping.prefix_references: order length mismatch";
  {
    r_dag = dag;
    r_allocs = allocs;
    r_p = p;
    r_order = order;
    r_keep = Array.make n true;
    r_starts = Array.make n 0;
    r_next = n;
  }

let reference_start r k =
  if k < 0 || k >= Array.length r.r_order then
    invalid_arg "Mapping.reference_start: position out of range";
  while r.r_next > k do
    let k' = r.r_next - 1 in
    let i = r.r_order.(k') in
    (match map_subset r.r_dag ~allocs:r.r_allocs ~p:r.r_p ~keep:r.r_keep with
    | Some starts -> r.r_starts.(k') <- starts.(i)
    | None -> r.r_starts.(k') <- 0);
    r.r_keep.(i) <- false;
    r.r_next <- k'
  done;
  r.r_starts.(k)

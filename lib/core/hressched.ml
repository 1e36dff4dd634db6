module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Analysis = Mp_dag.Analysis
module Grid = Mp_platform.Grid
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Allocation = Mp_cpa.Allocation

type slot = { site : int; start : int; finish : int; procs : int }
type t = { slots : slot array }

let turnaround t = Array.fold_left (fun acc s -> max acc s.finish) 0 t.slots

let cpu_hours t =
  float_of_int (Array.fold_left (fun acc s -> acc + (s.procs * (s.finish - s.start))) 0 t.slots)
  /. 3600.

type bound_method = HBD_ALL | HBD_CPAR

let bound_name = function HBD_ALL -> "HBD_ALL" | HBD_CPAR -> "HBD_CPAR"

(* The horizon over which each site's average availability is estimated
   for the CPAR reference capacity: 7 days. *)
let window = 7 * 86_400

(* Speed-weighted average availability across the grid over the window:
   the heterogeneous analogue of the paper's historical average q. *)
let reference_available grid =
  let total = ref 0. in
  for s = 0 to Grid.n_sites grid - 1 do
    let site = Grid.site grid s in
    total := !total +. (Grid.average_available grid ~site:s ~from_:0 ~until:window *. site.speed)
  done;
  max 1 (int_of_float (Float.round !total))

(* Translate a reference-cluster allocation to a site: a site [v] times
   faster needs [v] times fewer processors for the same work rate. *)
let translate_alloc ~speed ~site_procs r =
  max 1 (min site_procs (int_of_float (ceil (float_of_int r /. speed))))

(* Everything both passes (and every probe of [tightest]) need that
   depends only on ⟨grid, dag, bd⟩: the reference allocations, the
   bottom-level order, and — per ⟨site, task⟩ — the distinct-duration
   processor counts with their site-scaled durations.  Site speeds are
   immutable, so the tables stay valid as reservations accumulate. *)
type prep = {
  order : int array;
  site_cands : (int array * int array) array array;
      (* site → task → (nps ascending, site-scaled durations); both passes
         scan from the top index down (descending processor count) *)
}

let prepare ~bd grid dag =
  let nb = Dag.n dag in
  let ref_procs =
    match bd with
    | HBD_ALL -> Grid.reference_procs grid
    | HBD_CPAR -> min (Grid.reference_procs grid) (reference_available grid)
  in
  let ref_allocs = Allocation.allocate ~p:ref_procs dag in
  let weights = Allocation.weights dag ~allocs:ref_allocs in
  let order = Mp_cpa.Mapping.bl_order dag ~weights in
  let site_cands =
    Array.init (Grid.n_sites grid) (fun s ->
        let { Grid.procs = site_procs; speed; _ } = Grid.site grid s in
        Array.init nb (fun i ->
            let task = Dag.task dag i in
            let bound =
              match bd with
              | HBD_ALL -> site_procs
              | HBD_CPAR -> translate_alloc ~speed ~site_procs ref_allocs.(i)
            in
            let c = Task.candidates task ~max_np:bound in
            let durs =
              Array.map
                (fun np -> Grid.scale_duration grid ~site:s (Task.exec_time_f task np))
                c.Task.nps
            in
            (c.Task.nps, durs)))
  in
  { order; site_cands }

let schedule ?(bd = HBD_CPAR) grid dag =
  let nb = Dag.n dag in
  let { order; site_cands } = prepare ~bd grid dag in
  let slots = Array.make nb { site = 0; start = 0; finish = 0; procs = 0 } in
  let grid = ref grid in
  Array.iter
    (fun i ->
      let ready =
        Array.fold_left (fun acc j -> max acc slots.(j).finish) 0 (Dag.preds dag i)
      in
      let best = ref None in
      for s = 0 to Grid.n_sites !grid - 1 do
        let cal = Grid.calendar !grid s in
        (* candidates by descending processor count; early cut as in the
           homogeneous scheduler *)
        let nps, durs = site_cands.(s).(i) in
        let rec go c =
          if c < 0 then ()
          else begin
            let np = nps.(c) and dur = durs.(c) in
            let cut =
              match !best with Some (_, bf, _, _) -> ready + dur > bf | None -> false
            in
            if cut then ()
            else begin
              (match Calendar.earliest_fit cal ~after:ready ~procs:np ~dur with
              | None -> ()
              | Some start ->
                  let fin = start + dur in
                  let better =
                    match !best with
                    | None -> true
                    | Some (_, bf, bnp, bsite) ->
                        fin < bf || (fin = bf && (np < bnp || (np = bnp && s < bsite)))
                  in
                  if better then best := Some ((s, start, fin, np), fin, np, s));
              go (c - 1)
            end
          end
        in
        go (Array.length nps - 1)
      done;
      match !best with
      | None -> assert false (* 1 processor on any site always fits eventually *)
      | Some ((s, start, fin, np), _, _, _) ->
          grid := Grid.reserve !grid ~site:s (Reservation.make ~start ~finish:fin ~procs:np);
          slots.(i) <- { site = s; start; finish = fin; procs = np })
    order;
  { slots }

let deadline ?(bd = HBD_CPAR) grid dag =
  let nb = Dag.n dag in
  let { order; site_cands } = prepare ~bd grid dag in
  fun ~deadline ->
    let slots = Array.make nb { site = 0; start = 0; finish = 0; procs = 0 } in
    let grid = ref grid in
    (* increasing bottom level = reverse of the forward order *)
    let rec go k =
      if k < 0 then Some { slots }
      else begin
        let i = order.(k) in
        let dl =
          Array.fold_left (fun acc j -> min acc slots.(j).start) deadline (Dag.succs dag i)
        in
        let best = ref None in
        for s = 0 to Grid.n_sites !grid - 1 do
          let cal = Grid.calendar !grid s in
          let nps, durs = site_cands.(s).(i) in
          let rec try_cands c =
            if c < 0 then ()
            else begin
              let np = nps.(c) and dur = durs.(c) in
              let cut = match !best with Some (_, bs, _, _) -> dl - dur < bs | None -> false in
              if cut then ()
              else begin
                (* Starts before the best one lose the selection below even
                   on ties (equal start falls to processor then site order,
                   and the query result is the same segment either way), so
                   the scan may stop at [bs]. *)
                let earliest =
                  match !best with None -> 0 | Some (_, bs, _, _) -> max 0 bs
                in
                (match Calendar.latest_fit cal ~earliest ~finish_by:dl ~procs:np ~dur with
                | None -> ()
                | Some start ->
                    let better =
                      match !best with
                      | None -> true
                      | Some (_, bs, bnp, bsite) ->
                          start > bs || (start = bs && (np < bnp || (np = bnp && s < bsite)))
                    in
                    if better then best := Some ((s, start, start + dur, np), start, np, s));
                try_cands (c - 1)
              end
            end
          in
          try_cands (Array.length nps - 1)
        done;
        match !best with
        | None -> None
        | Some ((s, start, fin, np), _, _, _) ->
            grid := Grid.reserve !grid ~site:s (Reservation.make ~start ~finish:fin ~procs:np);
            slots.(i) <- { site = s; start; finish = fin; procs = np };
            go (k - 1)
      end
    in
    go (nb - 1)

let tightest ?bd grid dag =
  let weights =
    (* optimistic: every task on its best site at full size *)
    Array.map
      (fun tk ->
        let best = ref max_int in
        for s = 0 to Grid.n_sites grid - 1 do
          let { Grid.procs; _ } = Grid.site grid s in
          best := min !best (Grid.scale_duration grid ~site:s (Task.exec_time_f tk procs))
        done;
        float_of_int !best)
      (Dag.tasks dag)
  in
  Deadline.search
    ~lo:(int_of_float (ceil (Analysis.cp_length dag ~weights)))
    (deadline ?bd grid dag)

let validate grid dag t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if Array.length t.slots <> Dag.n dag then err "slot count mismatch"
  else begin
    let problems = ref [] in
    Array.iteri
      (fun i s ->
        if s.site < 0 || s.site >= Grid.n_sites grid then
          problems := Printf.sprintf "task %d: bad site %d" i s.site :: !problems
        else begin
          let { Grid.procs = site_procs; _ } = Grid.site grid s.site in
          if s.procs < 1 || s.procs > site_procs then
            problems := Printf.sprintf "task %d: procs %d outside site" i s.procs :: !problems;
          if s.start < 0 then problems := Printf.sprintf "task %d: negative start" i :: !problems;
          let need =
            Grid.scale_duration grid ~site:s.site (Task.exec_time_f (Dag.task dag i) s.procs)
          in
          if s.finish - s.start < need then
            problems :=
              Printf.sprintf "task %d: duration %d < required %d" i (s.finish - s.start) need
              :: !problems
        end)
      t.slots;
    List.iter
      (fun (i, j) ->
        if t.slots.(i).finish > t.slots.(j).start then
          problems := Printf.sprintf "precedence (%d, %d) violated" i j :: !problems)
      (Dag.edges dag);
    (* capacity per site *)
    (try
       let (_ : Grid.t) =
         Array.fold_left
           (fun g (s : slot) ->
             Grid.reserve g ~site:s.site
               (Reservation.make ~start:s.start ~finish:s.finish ~procs:s.procs))
           grid t.slots
       in
       ()
     with Calendar.Overcommitted r ->
       problems := Format.asprintf "capacity exceeded: %a" Reservation.pp r :: !problems);
    match !problems with [] -> Ok () | p :: _ -> err "%s" p
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i s -> Format.fprintf ppf "t%-3d site %d [%d, %d) x%d@," i s.site s.start s.finish s.procs)
    t.slots;
  Format.fprintf ppf "turnaround=%d cpu-hours=%.1f@]" (turnaround t) (cpu_hours t)

(* The calendar is a thin policy layer over {!Mp_index}: the index owns
   the step-function representation (a balanced breakpoint tree with
   hierarchical (min, max) availability summaries and lazy range-add
   tags — see lib/index/mp_index.ml and "Calendar index" in DESIGN.md),
   while this module owns the reservation-level contract: the
   [Overcommitted] exception, argument validation messages, and the
   derived views (segments, busy profile, series).

   [reserve], [release], point lookups and window minima are O(log R)
   in the number of breakpoints, both on the persistent form and inside
   a {!Txn}.  [earliest_fit] and [latest_fit] are each one walk over the
   breakpoints they cross, about one node visit per breakpoint plus
   O(log R).  All of them are output-preserving with respect to a
   brute-force walk of the step function (pinned by the qcheck
   reference model in test/test_platform.ml and test/test_index.ml).
   The index owns the fit queries' [None] cases (oversize [procs],
   windows that cannot fit between the bounds or past the ends of
   [int]); this module validates their arguments and counts and times
   the calls. *)

module Index = Mp_index

(* Observability probes (single branch, no allocation when Mp_obs is
   disabled): call counts and latency of the fit queries — the hot
   path — plus [reserve].  Tree-level work (descents, node visits) is
   counted by {!Mp_index} under ["index.*"]. *)
let c_earliest_fit = Mp_obs.Counter.make "calendar.earliest_fit.calls"
let c_latest_fit = Mp_obs.Counter.make "calendar.latest_fit.calls"
let c_reserve = Mp_obs.Counter.make "calendar.reserve.calls"
let t_earliest_fit = Mp_obs.Timer.make "calendar.earliest_fit"
let t_latest_fit = Mp_obs.Timer.make "calendar.latest_fit"
let t_reserve = Mp_obs.Timer.make "calendar.reserve"

type t = { procs : int; idx : Index.t }

exception Overcommitted of Reservation.t

let create ~procs =
  if procs <= 0 then invalid_arg "Calendar.create: procs <= 0";
  { procs; idx = Index.create ~procs }

let procs t = t.procs
let breakpoints t = Index.breakpoints t.idx
let available_at t time = Index.available_at t.idx time

let fold_segments t ~from_ ~until ~init ~f =
  Index.fold_segments t.idx ~from_ ~until ~init ~f

let segments t ~from_ ~until =
  List.rev
    (fold_segments t ~from_ ~until ~init:[] ~f:(fun acc ~start ~finish ~avail ->
         (start, finish, avail) :: acc))

let min_available t ~from_ ~until =
  if from_ >= until then invalid_arg "Calendar.min_available: empty window";
  Index.min_in t.idx ~from_ ~until

let average_available t ~from_ ~until =
  if from_ >= until then invalid_arg "Calendar.average_available: empty window";
  let total =
    fold_segments t ~from_ ~until ~init:0. ~f:(fun acc ~start ~finish ~avail ->
        acc +. (float_of_int avail *. float_of_int (finish - start)))
  in
  total /. float_of_int (until - from_)

let can_reserve t (r : Reservation.t) =
  Index.can_reserve t.idx ~start:r.start ~finish:r.finish ~procs:r.procs

(* One index call checks the window and applies it.  [calendar.reserve]
   counts and times grants only; a refused {!reserve} still counts as a
   call. *)
let reserve_opt t (r : Reservation.t) =
  let t0 = Mp_obs.Timer.start () in
  match Index.reserve t.idx ~start:r.start ~finish:r.finish ~procs:r.procs with
  | None -> None
  | Some idx ->
      Mp_obs.Counter.incr c_reserve;
      Mp_obs.Timer.stop t_reserve t0;
      Some { t with idx }

let reserve t r =
  match reserve_opt t r with
  | Some t -> t
  | None ->
      Mp_obs.Counter.incr c_reserve;
      raise (Overcommitted r)

let release t (r : Reservation.t) =
  match Index.release t.idx ~start:r.start ~finish:r.finish ~procs:r.procs with
  | Some idx -> { t with idx }
  | None -> invalid_arg "Calendar.release: reservation was not held on this calendar"

let earliest_fit t ~after ~procs ~dur =
  if procs < 1 then invalid_arg "Calendar.earliest_fit: procs < 1";
  if dur < 1 then invalid_arg "Calendar.earliest_fit: dur < 1";
  Mp_obs.Counter.incr c_earliest_fit;
  let t0 = Mp_obs.Timer.start () in
  let r = Index.earliest_fit t.idx ~after ~procs ~dur in
  Mp_obs.Timer.stop t_earliest_fit t0;
  r

let latest_fit t ~earliest ~finish_by ~procs ~dur =
  if procs < 1 then invalid_arg "Calendar.latest_fit: procs < 1";
  if dur < 1 then invalid_arg "Calendar.latest_fit: dur < 1";
  Mp_obs.Counter.incr c_latest_fit;
  let t0 = Mp_obs.Timer.start () in
  let r = Index.latest_fit t.idx ~earliest ~finish_by ~procs ~dur in
  Mp_obs.Timer.stop t_latest_fit t0;
  r

(* --- Txn -------------------------------------------------------------- *)

(* The single-owner incremental form: a mutable root pointer into the
   shared tree ({!Mp_index.Txn}).  [start] and [commit] are O(1) — no
   arrays are copied, the snapshot a transaction was forked from is
   never affected — and each reserve path-copies O(log R) nodes.  A Txn
   answers every query exactly as the persistent calendar obtained by
   folding the same reservations with {!reserve} would (pinned by a
   qcheck property in test_platform.ml). *)
module Txn = struct
  type cal = t

  type nonrec t = { procs : int; itx : Index.Txn.t }

  let start (cal : cal) = { procs = cal.procs; itx = Index.Txn.start cal.idx }
  let procs t = t.procs

  (* As the persistent {!reserve_opt} / {!reserve}. *)
  let reserve_opt t (r : Reservation.t) =
    let t0 = Mp_obs.Timer.start () in
    let granted = Index.Txn.reserve t.itx ~start:r.start ~finish:r.finish ~procs:r.procs in
    if granted then begin
      Mp_obs.Counter.incr c_reserve;
      Mp_obs.Timer.stop t_reserve t0
    end;
    granted

  let reserve t r =
    if not (reserve_opt t r) then begin
      Mp_obs.Counter.incr c_reserve;
      raise (Overcommitted r)
    end

  let release t (r : Reservation.t) =
    if not (Index.Txn.release t.itx ~start:r.start ~finish:r.finish ~procs:r.procs)
    then invalid_arg "Calendar.Txn.release: reservation was not held on this transaction"

  (* Persistent calendar equal to the transaction's current state.  The
     breakpoint set is exactly the persistent fold's — the index inserts
     cut points at reservation bounds and never removes any, matching
     the persistent [reserve]. *)
  let commit (t : t) : cal = { procs = t.procs; idx = Index.Txn.commit t.itx }

  let earliest_fit ?(limit = max_int) t ~after ~procs ~dur =
    if procs < 1 then invalid_arg "Calendar.Txn.earliest_fit: procs < 1";
    if dur < 1 then invalid_arg "Calendar.Txn.earliest_fit: dur < 1";
    Mp_obs.Counter.incr c_earliest_fit;
    let t0 = Mp_obs.Timer.start () in
    let r = Index.Txn.earliest_fit ~limit t.itx ~after ~procs ~dur in
    Mp_obs.Timer.stop t_earliest_fit t0;
    r

  let latest_fit t ~earliest ~finish_by ~procs ~dur =
    if procs < 1 then invalid_arg "Calendar.Txn.latest_fit: procs < 1";
    if dur < 1 then invalid_arg "Calendar.Txn.latest_fit: dur < 1";
    Mp_obs.Counter.incr c_latest_fit;
    let t0 = Mp_obs.Timer.start () in
    let r = Index.Txn.latest_fit t.itx ~earliest ~finish_by ~procs ~dur in
    Mp_obs.Timer.stop t_latest_fit t0;
    r
end

(* Bulk construction: apply the reservations through one transaction
   instead of one persistent version per reservation.  The fold order and
   the raising behavior are those of folding [reserve] — [Txn.reserve]
   raises [Overcommitted] on the same first infeasible reservation — and
   the committed calendar's breakpoint set is identical entry for entry
   (pinned by a qcheck property in test_platform.ml). *)
let of_reservations ~procs rs =
  let txn = Txn.start (create ~procs) in
  List.iter (Txn.reserve txn) (List.sort Reservation.compare_by_start rs);
  Txn.commit txn

let busy_rectangles t ~from_ ~until =
  if from_ >= until then invalid_arg "Calendar.busy_rectangles: empty window";
  (* Sweep the segments keeping a stack of open rectangles; busy-level
     increases open rectangles, decreases close the most recent ones
     (their processor counts split as needed). *)
  let open_stack = ref [] (* (start, procs) most recent first *) in
  let finished = ref [] in
  let close_until time target =
    (* shrink the stack so that its total equals [target] *)
    let rec go () =
      let total = List.fold_left (fun acc (_, p) -> acc + p) 0 !open_stack in
      if total > target then begin
        match !open_stack with
        | [] -> assert false
        | (start, p) :: rest ->
            let excess = total - target in
            if p <= excess then begin
              open_stack := rest;
              finished := Reservation.make ~start ~finish:time ~procs:p :: !finished;
              go ()
            end
            else begin
              open_stack := (start, p - excess) :: rest;
              finished := Reservation.make ~start ~finish:time ~procs:excess :: !finished
            end
      end
    in
    go ()
  in
  let current_busy () = List.fold_left (fun acc (_, p) -> acc + p) 0 !open_stack in
  fold_segments t ~from_ ~until ~init:() ~f:(fun () ~start ~finish:_ ~avail ->
      let busy = t.procs - avail in
      let cur = current_busy () in
      if busy > cur then open_stack := (start, busy - cur) :: !open_stack
      else if busy < cur then close_until start busy);
  close_until until 0;
  List.rev !finished

let busy_series t ~from_ ~until ~step =
  if step <= 0 then invalid_arg "Calendar.busy_series: step <= 0";
  let rec go acc time =
    if time >= until then List.rev acc
    else go (float_of_int (t.procs - available_at t time) :: acc) (time + step)
  in
  go [] from_

let pp ppf t =
  Format.fprintf ppf "@[<v>calendar p=%d@," t.procs;
  Index.iter_breakpoints t.idx (fun time v ->
      if time <> min_int then Format.fprintf ppf "  @%d -> %d@," time v
      else Format.fprintf ppf "  @-inf -> %d@," v);
  Format.fprintf ppf "@]"

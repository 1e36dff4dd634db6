module Rng = Mp_prelude.Rng
module Reservation = Mp_platform.Reservation
module Calendar = Mp_platform.Calendar

type method_ = Linear | Expo | Real

let method_name = function Linear -> "linear" | Expo -> "expo" | Real -> "real"
let all_methods = [ Linear; Expo; Real ]

type t = { procs : int; past : Reservation.t list; future : Reservation.t list }

let day = 86_400
let horizon_days = 7
let horizon = horizon_days * day

let tag rng ~phi jobs =
  if phi <= 0. || phi > 1. then invalid_arg "Reservation_gen.tag: phi not in (0,1]";
  List.filter (fun (j : Job.t) -> j.start <> None && Rng.bernoulli rng phi) jobs

let random_instant rng jobs =
  match jobs with
  | [] -> invalid_arg "Reservation_gen.random_instant: empty log"
  | _ ->
      let lo = List.fold_left (fun acc (j : Job.t) -> min acc j.submit) max_int jobs in
      let hi =
        List.fold_left
          (fun acc (j : Job.t) -> match Job.finish j with Some f -> max acc f | None -> acc)
          lo jobs
      in
      let span = max 1 (hi - lo) in
      lo + (span / 5) + Rng.int rng (max 1 (span * 3 / 5))

(* Day bucket of a reservation relative to T=0: day of its start time,
   with anything already running at 0 assigned to day 0. *)
let bucket_of (r : Reservation.t) = if r.start <= 0 then 0 else min (horizon_days - 1) (r.start / day)

(* Per-day reservation-count targets that preserve the total count. *)
let targets method_ total =
  let weights =
    match method_ with
    | Linear -> List.init horizon_days (fun d -> float_of_int horizon_days -. (float_of_int d +. 0.5))
    | Expo -> List.init horizon_days (fun d -> exp (-0.66 *. (float_of_int d +. 0.5)))
    | Real -> invalid_arg "Reservation_gen.targets: Real has no targets"
  in
  let sum = List.fold_left ( +. ) 0. weights in
  List.map (fun w -> int_of_float (Float.round (w /. sum *. float_of_int total))) weights

let reshape rng method_ future =
  match method_ with
  | Real -> future (* submission-based filtering happens in [extract] *)
  | Linear | Expo ->
      let total = List.length future in
      if total = 0 then []
      else begin
        let buckets = Array.make horizon_days [] in
        List.iter (fun r -> buckets.(bucket_of r) <- r :: buckets.(bucket_of r)) future;
        let all = Array.of_list future in
        let tgt = Array.of_list (targets method_ total) in
        let out = ref [] in
        for d = 0 to horizon_days - 1 do
          let have = Array.of_list buckets.(d) in
          let nh = Array.length have in
          if nh >= tgt.(d) then begin
            (* remove extras at random *)
            Rng.shuffle rng have;
            for k = 0 to tgt.(d) - 1 do
              out := have.(k) :: !out
            done
          end
          else begin
            Array.iter (fun r -> out := r :: !out) have;
            (* add clones with fresh start times inside this day *)
            for _ = nh + 1 to tgt.(d) do
              let proto = Rng.sample rng all in
              let dur = Reservation.duration proto in
              let start = (d * day) + Rng.int rng day in
              out := Reservation.make ~start ~finish:(start + dur) ~procs:proto.procs :: !out
            done
          end
        done;
        !out
      end

(* Greedily keep reservations that fit remaining capacity (clones added by
   reshaping may overcommit; originals never do, being a subset of a
   feasible schedule). *)
let feasible_subset ~procs rs =
  let rs = List.sort Reservation.compare_by_start rs in
  let cal = ref (Calendar.create ~procs) in
  let kept =
    List.fold_left
      (fun kept r ->
        match Calendar.reserve_opt !cal r with
        | Some c ->
            cal := c;
            r :: kept
        | None -> kept)
      [] rs
  in
  List.rev kept

let extract rng method_ ~procs ~at tagged =
  let shifted =
    List.filter_map
      (fun (j : Job.t) ->
        match j.start with
        | None -> None
        | Some s ->
            let r = Reservation.make ~start:(s - at) ~finish:(s - at + j.run) ~procs:j.procs in
            Some (j, r))
      tagged
  in
  let past =
    List.filter_map
      (fun ((_ : Job.t), (r : Reservation.t)) ->
        if r.start < 0 && r.finish > -horizon then Some r else None)
      shifted
  in
  let future_all =
    List.filter_map
      (fun ((j : Job.t), (r : Reservation.t)) ->
        if r.finish <= 0 || r.start >= horizon then None
        else begin
          match method_ with
          | Real -> if j.submit <= at then Some r else None
          | Linear | Expo -> Some r
        end)
      shifted
  in
  let future = reshape rng method_ future_all in
  let future = feasible_subset ~procs future in
  { procs; past; future }

let calendar t = Calendar.of_reservations ~procs:t.procs t.future

let historical_average t =
  let window_rs = if t.past = [] then t.future else t.past in
  let from_, until = if t.past = [] then (0, horizon) else (-horizon, 0) in
  let cal = Calendar.of_reservations ~procs:t.procs (feasible_subset ~procs:t.procs window_rs) in
  Calendar.average_available cal ~from_ ~until

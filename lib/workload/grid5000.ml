module Rng = Mp_prelude.Rng
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation

type t = { cpus : int; jobs : Job.t list }

let default_cpus = 368
let day = 86_400

(* Table 3 targets. *)
let mean_exec = 1.84 *. 3600.
let mean_wait = 3.24 *. 3600.

let draw_runtime rng =
  let sigma = 1.0 in
  let mu = log mean_exec -. (sigma *. sigma /. 2.) in
  let r = Rng.lognormal rng ~mu ~sigma in
  int_of_float (Float.min (float_of_int (2 * day)) (Float.max 60. r))

(* Advance notice (submit -> start).  Most reservations are near-term, but
   a tail is booked days ahead — that tail is what makes the number of
   known future reservations decay over days rather than hours, which is
   the pattern the linear/expo reshaping methods try to match. *)
let draw_wait rng =
  if Rng.bernoulli rng 0.8 then int_of_float (Rng.exponential rng (0.35 *. mean_wait))
  else begin
    (* heavy-tailed long-notice bookings, out to several days *)
    let w = Rng.lognormal rng ~mu:(log (12. *. 3600.)) ~sigma:1.5 in
    int_of_float (Float.min (6.5 *. 86_400.) w)
  end

let draw_procs rng cpus =
  (* Grid'5000 reservations are typically for a handful of nodes. *)
  let u = Rng.float rng 1. in
  max 1 (min cpus (int_of_float (u *. u *. float_of_int (cpus / 4)) + 1))

let generate rng ?(cpus = default_cpus) ?(days = 60) ?(load = 0.30) () =
  if cpus <= 0 || days <= 0 then invalid_arg "Grid5000.generate";
  let horizon = days * day in
  (* jobs/second so that expected work matches the target load *)
  let calib = Rng.split rng in
  let samples = 1000 in
  let work = ref 0. in
  for _ = 1 to samples do
    work := !work +. (float_of_int (draw_runtime calib) *. float_of_int (draw_procs calib cpus))
  done;
  let work_per_job = !work /. float_of_int samples in
  let rate = load *. float_of_int cpus /. work_per_job in
  let rec arrivals acc t =
    let t = t +. Rng.exponential rng (1. /. rate) in
    if t >= float_of_int horizon then List.rev acc else arrivals (int_of_float t :: acc) t
  in
  let submits = arrivals [] 0. in
  let cal = ref (Calendar.create ~procs:cpus) in
  let jobs =
    List.fold_left
      (fun acc submit ->
        let run = draw_runtime rng in
        let procs = draw_procs rng cpus in
        let requested = submit + draw_wait rng in
        match Calendar.earliest_fit !cal ~after:requested ~procs ~dur:run with
        | None -> acc
        | Some start ->
            cal := Calendar.reserve !cal (Reservation.make ~start ~finish:(start + run) ~procs);
            let j = Job.make ~id:(List.length acc + 1) ~submit ~start ~run ~procs () in
            j :: acc)
      [] submits
  in
  { cpus; jobs = List.rev jobs }

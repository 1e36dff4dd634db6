module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation

type policy = Conservative | Easy

let by_submit jobs =
  List.sort (fun (a : Job.t) (b : Job.t) -> compare (a.submit, a.id) (b.submit, b.id)) jobs

let conservative ?(reserved = []) ~procs jobs =
  let cal = ref (Calendar.of_reservations ~procs reserved) in
  let placed =
    List.fold_left
      (fun acc (j : Job.t) ->
        match Calendar.earliest_fit !cal ~after:j.submit ~procs:j.procs ~dur:j.run with
        | None -> acc (* cannot happen: procs <= capacity *)
        | Some s ->
            cal :=
              Calendar.reserve !cal (Reservation.make ~start:s ~finish:(s + j.run) ~procs:j.procs);
            { j with start = Some s } :: acc)
      [] jobs
  in
  List.rev placed

(* Event-driven EASY backfilling: only the queue head holds a reservation
   (the "shadow time"); other jobs may start out of order if doing so
   cannot delay the head. *)
let easy ~procs jobs =
  let arrivals = ref (by_submit jobs) in
  let queue = ref [] (* FIFO, head first *) in
  let running = ref [] (* (finish, procs) *) in
  let placed = ref [] in
  let free = ref procs in
  let start_job t (j : Job.t) =
    running := (t + j.run, j.procs) :: !running;
    free := !free - j.procs;
    placed := { j with start = Some t } :: !placed
  in
  (* earliest time at which [need] processors are free, and the processors
     spare at that time once [need] are claimed *)
  let shadow_of need =
    let finishes = List.sort compare !running in
    let rec go avail = function
      | _ when avail >= need -> (None, avail - need)
      | [] -> (None, avail - need) (* unreachable: need <= procs *)
      | (fin, p) :: rest -> if avail + p >= need then (Some fin, avail + p - need) else go (avail + p) rest
    in
    match go !free finishes with
    | None, spare -> (min_int, spare) (* head can start now *)
    | Some fin, spare -> (fin, spare)
  in
  (* start every queued job the policy allows at time t *)
  let rec drain t =
    match !queue with
    | [] -> ()
    | (head : Job.t) :: rest ->
        if head.procs <= !free then begin
          queue := rest;
          start_job t head;
          drain t
        end
        else begin
          (* head blocked: backfill the rest without delaying its shadow *)
          let shadow, spare = shadow_of head.procs in
          let started_one = ref false in
          queue :=
            head
            :: List.filter
                 (fun (j : Job.t) ->
                   let can_backfill =
                     (not !started_one)
                     && j.procs <= !free
                     && (t + j.run <= shadow || j.procs <= spare)
                   in
                   if can_backfill then begin
                     start_job t j;
                     started_one := true;
                     false
                   end
                   else true)
                 rest;
          (* a backfill changes free/shadow: rescan until a fixpoint *)
          if !started_one then drain t
        end
  in
  let rec step t =
    (* release completions at or before t *)
    let done_, still = List.partition (fun (fin, _) -> fin <= t) !running in
    List.iter (fun (_, p) -> free := !free + p) done_;
    running := still;
    (* admit arrivals at or before t *)
    let now, later = List.partition (fun (j : Job.t) -> j.submit <= t) !arrivals in
    arrivals := later;
    queue := !queue @ now;
    drain t;
    (* next event *)
    let next_completion = List.fold_left (fun acc (fin, _) -> min acc fin) max_int !running in
    let next_arrival =
      match !arrivals with [] -> max_int | (j : Job.t) :: _ -> j.submit
    in
    let next = min next_completion next_arrival in
    if next < max_int then step next
  in
  (match by_submit jobs with [] -> () | (j : Job.t) :: _ -> step j.submit);
  List.sort
    (fun (a : Job.t) (b : Job.t) -> compare (a.start, a.id) (b.start, b.id))
    !placed

let schedule ?(policy = Conservative) ?(reserved = []) ~procs jobs =
  let jobs = List.filter (fun (j : Job.t) -> j.procs <= procs) jobs in
  let jobs = by_submit jobs in
  match policy with
  | Conservative -> conservative ~reserved ~procs jobs
  | Easy ->
      if reserved <> [] then
        invalid_arg "Batch_sim.schedule: reservations are only supported by Conservative";
      easy ~procs jobs

let utilization ~procs ~horizon jobs =
  if horizon <= 0 then invalid_arg "Batch_sim.utilization: horizon <= 0";
  let used =
    List.fold_left
      (fun acc (j : Job.t) ->
        match j.start with
        | None -> acc
        | Some s ->
            let a = max 0 s and b = min horizon (s + j.run) in
            if b > a then acc + (j.procs * (b - a)) else acc)
      0 jobs
  in
  float_of_int used /. (float_of_int procs *. float_of_int horizon)

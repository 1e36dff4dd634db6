module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Reservation = Mp_platform.Reservation
module Calendar = Mp_platform.Calendar

type slot = { start : int; finish : int; procs : int }
type t = { slots : slot array }

let slot t i = t.slots.(i)
let start t i = t.slots.(i).start
let finish t i = t.slots.(i).finish
let procs t i = t.slots.(i).procs
let turnaround t = Array.fold_left (fun acc s -> max acc s.finish) 0 t.slots
let earliest_start t = Array.fold_left (fun acc s -> min acc s.start) max_int t.slots

let cpu_seconds t =
  Array.fold_left (fun acc s -> acc + (s.procs * (s.finish - s.start))) 0 t.slots

let cpu_hours t = float_of_int (cpu_seconds t) /. 3600.

let reservations t =
  let rs =
    Array.to_list
      (Array.map (fun s -> Reservation.make ~start:s.start ~finish:s.finish ~procs:s.procs) t.slots)
  in
  List.sort Reservation.compare_by_start rs

let render_slots t =
  List.mapi
    (fun i s ->
      { Mp_forensics.Render.label = string_of_int i; start = s.start; finish = s.finish; procs = s.procs })
    (Array.to_list t.slots)

let validate dag ~base ?deadline t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let* () =
    if Array.length t.slots <> Dag.n dag then err "slot count %d <> task count %d"
        (Array.length t.slots) (Dag.n dag)
    else Ok ()
  in
  let p = Calendar.procs base in
  let check_task i acc =
    let* () = acc in
    let s = t.slots.(i) in
    let tk = Dag.task dag i in
    if s.procs < 1 || s.procs > p then err "task %d: procs %d outside [1, %d]" i s.procs p
    else if s.start < 0 then err "task %d: starts before now (%d)" i s.start
    else if s.finish - s.start < Task.exec_time tk s.procs then
      err "task %d: duration %d < execution time %d on %d procs" i (s.finish - s.start)
        (Task.exec_time tk s.procs) s.procs
    else Ok ()
  in
  let* () =
    let acc = ref (Ok ()) in
    for i = 0 to Dag.n dag - 1 do
      acc := check_task i !acc
    done;
    !acc
  in
  let* () =
    let acc = ref (Ok ()) in
    List.iter
      (fun (i, j) ->
        match !acc with
        | Error _ -> ()
        | Ok () ->
            if t.slots.(i).finish > t.slots.(j).start then
              acc := err "precedence violated: task %d finishes at %d, successor %d starts at %d" i
                  t.slots.(i).finish j t.slots.(j).start)
      (Dag.edges dag);
    !acc
  in
  let* () =
    try
      let (_ : Calendar.t) = List.fold_left Calendar.reserve base (reservations t) in
      Ok ()
    with Calendar.Overcommitted r -> err "capacity exceeded by reservation %a" Reservation.pp r
  in
  match deadline with
  | Some k when turnaround t > k -> err "deadline %d missed: finishes at %d" k (turnaround t)
  | _ -> Ok ()

let to_json ?(competing = []) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"turnaround\": %d, \"cpu_hours\": %.3f, \"tasks\": [" (turnaround t)
       (cpu_hours t));
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "{\"id\": %d, \"start\": %d, \"finish\": %d, \"procs\": %d}" i s.start
           s.finish s.procs))
    t.slots;
  Buffer.add_string buf "], \"competing\": [";
  List.iteri
    (fun i (r : Reservation.t) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "{\"start\": %d, \"finish\": %d, \"procs\": %d}" r.start r.finish r.procs))
    competing;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i s -> Format.fprintf ppf "t%-3d [%d, %d) x%d@," i s.start s.finish s.procs)
    t.slots;
  Format.fprintf ppf "turnaround=%d cpu-hours=%.1f@]" (turnaround t) (cpu_hours t)

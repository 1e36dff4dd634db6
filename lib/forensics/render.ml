module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation

type slot = { label : string; start : int; finish : int; procs : int }

(* First-fit assignment of concrete processor rows: items in start order
   each take the first rows free at their start.  Capacity feasibility
   guarantees enough rows; over-capacity input (e.g. slots not from a
   validated schedule) is skipped rather than drawn wrongly. *)
let assign ~procs items =
  let busy_until = Array.make (max 1 procs) min_int in
  List.filter_map
    (fun (it, competing) ->
      let rows = ref [] in
      let needed = ref it.procs in
      for p = 0 to procs - 1 do
        if !needed > 0 && busy_until.(p) <= it.start then begin
          rows := p :: !rows;
          busy_until.(p) <- it.finish;
          decr needed
        end
      done;
      if !needed > 0 then None else Some (it, competing, List.rev !rows))
    items

let palette =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#b07aa1"; "#76b7b2"; "#edc948"; "#ff9da7" |]

let span items =
  let lo = List.fold_left (fun acc (it, _) -> min acc (max 0 it.start)) max_int items in
  let hi = List.fold_left (fun acc (it, _) -> max acc it.finish) 0 items in
  if items = [] || lo >= hi then (0, 1) else (lo, hi)

(* Contiguous runs of processor rows render as one rectangle. *)
let rec runs = function
  | [] -> []
  | p :: rest ->
      let rec take q = function
        | r :: rest' when r = q + 1 -> take r rest'
        | rest' -> (q, rest')
      in
      let q, rest' = take p rest in
      (p, q) :: runs rest'

let profile_points cal ~from_ ~until =
  List.rev
    (Calendar.fold_segments cal ~from_ ~until ~init:[] ~f:(fun acc ~start ~finish ~avail ->
         (start, finish, avail) :: acc))

(* What both Gantt charts draw: the base calendar's competing reservations
   up to an hour past the last slot, and the slots, in start order with
   their first-fit processor rows ([true] marks a competitor), over the
   time span they cover.  Also returns the competitor count. *)
let placement ~base ~slots =
  let slot_hi = List.fold_left (fun acc s -> max acc s.finish) 0 slots in
  let competing = Calendar.busy_rectangles base ~from_:0 ~until:(max 1 slot_hi + 3_600) in
  let items =
    List.map (fun (r : Reservation.t) ->
        ({ label = "#"; start = r.start; finish = r.finish; procs = r.procs }, true))
      competing
    @ List.map (fun s -> (s, false)) slots
  in
  let items =
    List.sort (fun ((a : slot), _) ((b : slot), _) -> compare (a.start, a.finish) (b.start, b.finish)) items
  in
  (assign ~procs:(Calendar.procs base) items, span items, List.length competing)

let task_char =
  let letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  fun i -> letters.[i mod String.length letters]

let gantt_ascii ~base ~slots =
  let width = 100 and procs = Calendar.procs base in
  let placed, (lo, hi), _ = placement ~base ~slots in
  let scale t = (t - lo) * width / max 1 (hi - lo) in
  (* down-sample processors onto at most 40 display rows *)
  let rows = min procs 40 in
  let row_of p = p * rows / procs in
  let grid = Array.make_matrix rows width '.' in
  let task_index = ref 0 in
  List.iter
    (fun ((it : slot), competing, ps) ->
      let c =
        if competing then '#'
        else begin
          let c = task_char !task_index in
          incr task_index;
          c
        end
      in
      let x0 = max 0 (scale (max lo it.start)) in
      let x1 = max (x0 + 1) (scale (min hi it.finish)) in
      List.iter
        (fun p ->
          let r = row_of p in
          for x = x0 to min (width - 1) (x1 - 1) do
            (* tasks overwrite idle and competing marks; never other tasks *)
            if grid.(r).(x) = '.' || (grid.(r).(x) = '#' && c <> '#') then grid.(r).(x) <- c
          done)
        ps)
    placed;
  let buf = Buffer.create ((rows + 2) * (width + 8)) in
  Buffer.add_string buf
    (Printf.sprintf "time %d .. %d s (%.1f h), %d processors on %d rows\n" lo hi
       (float_of_int (hi - lo) /. 3600.)
       procs rows);
  Array.iteri
    (fun r line ->
      Buffer.add_string buf (Printf.sprintf "%3d|" r);
      Buffer.add_string buf (String.init width (Array.get line));
      Buffer.add_char buf '\n')
    grid;
  Buffer.contents buf

let gantt_svg ~base ~slots =
  let width = 960 and procs = Calendar.procs base in
  (* Row height adapts so big clusters stay under ~720 px tall. *)
  let row_height = max 1 (min 10 (720 / max 1 procs)) in
  let placed, (lo, hi), n_competing = placement ~base ~slots in
  let margin = 40 in
  let strip_h = 40 (* availability profile strip *) in
  let w = width - (2 * margin) in
  let scale t = margin + ((t - lo) * w / max 1 (hi - lo)) in
  let top = 25 + strip_h + 10 in
  let height = top + (procs * row_height) + 35 in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" font-family=\"monospace\" font-size=\"9\">\n"
       width height);
  Buffer.add_string buf "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  (* availability profile strip *)
  Buffer.add_string buf
    (Printf.sprintf "<text x=\"%d\" y=\"20\" fill=\"#333333\">available processors (of %d)</text>\n"
       margin procs);
  List.iter
    (fun (s, f, avail) ->
      let x0 = scale (max lo s) and x1 = scale (min hi f) in
      let h = avail * strip_h / max 1 procs in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#a7c7e7\" stroke=\"none\"/>\n"
           x0
           (25 + strip_h - h)
           (max 1 (x1 - x0))
           (max 0 h)))
    (profile_points base ~from_:lo ~until:hi);
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#888888\"/>\n" margin
       (25 + strip_h) (margin + w) (25 + strip_h));
  (* hour gridlines over the schedule area *)
  let hour = 3600 in
  let first_hour = (lo + hour - 1) / hour * hour in
  let step =
    let hours_total = max 1 ((hi - lo) / hour) in
    max 1 (hours_total / 24) * hour
  in
  let t = ref first_hour in
  while !t <= hi do
    let x = scale !t in
    Buffer.add_string buf
      (Printf.sprintf
         "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#dddddd\"/>\n<text x=\"%d\" y=\"%d\" fill=\"#666666\">%dh</text>\n"
         x top x (height - 30) x (top - 3) (!t / hour));
    t := !t + step
  done;
  let task_index = ref 0 in
  List.iter
    (fun (it, competing, ps) ->
      let x0 = scale (max lo it.start) and x1 = scale (min hi it.finish) in
      let color =
        if competing then "#c0c0c0"
        else begin
          let c = palette.(!task_index mod Array.length palette) in
          incr task_index;
          c
        end
      in
      List.iter
        (fun (p0, p1) ->
          let y = top + (p0 * row_height) in
          let h = (p1 - p0 + 1) * row_height in
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" stroke=\"white\" stroke-width=\"0.5\"%s/>\n"
               x0 y
               (max 1 (x1 - x0))
               h color
               (if competing then " opacity=\"0.6\"" else ""));
          if (not competing) && x1 - x0 > 18 then
            Buffer.add_string buf
              (Printf.sprintf "<text x=\"%d\" y=\"%d\" fill=\"white\">%s</text>\n" (x0 + 2)
                 (y + row_height - 2) it.label))
        (runs ps))
    placed;
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"%d\" fill=\"#333333\">%d processors, %d scheduled tasks, %d competing reservations</text>\n"
       margin (height - 10) procs (List.length slots) n_competing);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let profile_svg cal ~from_ ~until =
  if from_ >= until then invalid_arg "Render.profile_svg: empty window";
  let width = 960 and height = 240 in
  let procs = Calendar.procs cal in
  let margin = 40 in
  let w = width - (2 * margin) and h = height - 60 in
  let scale_x t = margin + ((t - from_) * w / max 1 (until - from_)) in
  let scale_y avail = 30 + h - (avail * h / max 1 procs) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" font-family=\"monospace\" font-size=\"9\">\n"
       width height);
  Buffer.add_string buf "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"20\" fill=\"#333333\">availability profile [%d, %d), %d processors</text>\n"
       margin from_ until procs);
  List.iter
    (fun (s, f, avail) ->
      let x0 = scale_x (max from_ s) and x1 = scale_x (min until f) in
      let y = scale_y avail in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#a7c7e7\"/>\n" x0 y
           (max 1 (x1 - x0))
           (max 0 (30 + h - y))))
    (profile_points cal ~from_ ~until);
  (* axis: 0 and p *)
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#888888\"/>\n<text x=\"4\" y=\"%d\" fill=\"#666666\">0</text>\n<text x=\"4\" y=\"%d\" fill=\"#666666\">%d</text>\n"
       margin (30 + h) (margin + w) (30 + h) (30 + h) 34 procs);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let html ~title ~gantt ~profile ~analytics ~story =
  String.concat ""
    [
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/><title>";
      html_escape title;
      "</title>\n<style>body{font-family:monospace;margin:2em}h2{border-bottom:1px solid \
       #ccc}pre{background:#f7f7f7;padding:1em;overflow-x:auto}</style></head>\n<body>\n<h1>";
      html_escape title;
      "</h1>\n<h2>Schedule (Gantt, overlaid on the reservation calendar)</h2>\n";
      gantt;
      "\n<h2>Availability profile</h2>\n";
      profile;
      "\n<h2>Calendar analytics</h2>\n<pre>";
      html_escape analytics;
      "</pre>\n<h2>Decision journal</h2>\n<pre>";
      html_escape story;
      "</pre>\n</body></html>\n";
    ]

(* Clocks, estimators and the result line shared by every workload. *)

(* Monotonic nanoseconds.  Phases and the latencies the benchmark
   times itself use this clock; the engine's own per-request [wall_ns] comes
   from [Mp_obs.now_ns], which reads a microsecond wall clock. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* --- percentiles --------------------------------------------------------- *)

(* A percentile [q] is reported only from a sample with at least ten
   observations beyond it: p99 needs 1 000 samples. *)
let enough_samples ~q n = float_of_int n *. (1. -. q) >= 10. -. 1e-9

(* Readings of a clock with resolution [quantum] ns, rounded to it. *)
let quantize ~quantum ns = if quantum <= 1 then ns else (ns + (quantum / 2)) / quantum * quantum

(* Readings as a multiset: reading -> count.  A serve-protocol run's
   millions of microsecond readings take a few thousand distinct values,
   so a run's memory does not grow with the number of rounds it fits;
   kept as arrays, they made a faster run report a higher peak RSS. *)
type tally = (int, int) Hashtbl.t

let add_readings (t : tally) a =
  Array.iter (fun v -> Hashtbl.replace t v (1 + Option.value ~default:0 (Hashtbl.find_opt t v))) a

let tally a : tally =
  let t = Hashtbl.create 1024 in
  add_readings t a;
  t

let count (t : tally) = Hashtbl.fold (fun _ c n -> n + c) t 0

(* Nearest-rank percentile (the {!Mp_obs.Summary} rank) of readings
   taken at resolution [quantum] ns.  A reading [v] stands for a true
   value in [\[v - quantum/2, v + quantum/2)]; when several samples tie at
   the rank's reading, the estimate moves through that bin in proportion
   to the rank's position among them.  Without this, microsecond
   readings of a few-microsecond operation would print the same number
   on every run.  [nan] when empty. *)
let percentile ~quantum (t : tally) q =
  let n = count t in
  if n = 0 then nan
  else begin
    let k = min (n - 1) (int_of_float (q *. float_of_int n)) in
    (* the [c] samples equal to [v] hold ranks [lo, lo + c) *)
    let rec find lo = function
      | (v, c) :: rest -> if k < lo + c then (v, lo, c) else find (lo + c) rest
      | [] -> assert false
    in
    let v, lo, c = find 0 (List.sort compare (Hashtbl.fold (fun v c l -> (v, c) :: l) t [])) in
    let frac = (float_of_int (k - lo) +. 0.5) /. float_of_int c in
    float_of_int v +. (float_of_int quantum *. (frac -. 0.5))
  end

let sorted_copy a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- process memory ---------------------------------------------------- *)

(* Peak resident set ([VmHWM]) in MiB, [nan] where /proc is missing. *)
let peak_rss_mib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
        nan
        (String.split_on_char '\n' status)

(* --- span self time ---------------------------------------------------- *)

type span_time = { calls : int; total_ns : int; self_ns : int }

(* Per span name: calls, summed duration, and self time — duration minus
   the same-domain child spans contained in it.

   A domain's spans nest, and each is recorded when it exits, so a child
   precedes its parent in exit order.  Exit order is recovered from the
   snapshot by sorting each domain's events by end time, later start
   first on ties; events that tie on both keep their snapshot order,
   which {!Mp_obs.Snapshot.take} leaves in exit order (its sort is
   stable).  Walking that order with a stack, the events a span pops are
   exactly its direct children. *)
let span_times (events : Mp_obs.Snapshot.event list) =
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun (e : Mp_obs.Snapshot.event) ->
      Hashtbl.replace by_domain e.domain
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_domain e.domain)))
    events;
  let acc = Hashtbl.create 16 in
  let record name ~dur ~self =
    let c, t, s = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (c + 1, t + dur, s + self)
  in
  let end_of (e : Mp_obs.Snapshot.event) = e.start_ns + e.dur_ns in
  Hashtbl.iter
    (fun _ rev_events ->
      let in_exit_order =
        List.stable_sort
          (fun (a : Mp_obs.Snapshot.event) b ->
            match compare (end_of a) (end_of b) with 0 -> compare b.start_ns a.start_ns | c -> c)
          (List.rev rev_events)
      in
      let stack = Stack.create () in
      List.iter
        (fun (e : Mp_obs.Snapshot.event) ->
          let children = ref 0 in
          while
            (not (Stack.is_empty stack))
            &&
            let top : Mp_obs.Snapshot.event = Stack.top stack in
            top.start_ns >= e.start_ns && end_of top <= end_of e
          do
            children := !children + (Stack.pop stack).dur_ns
          done;
          record e.span_name ~dur:e.dur_ns ~self:(e.dur_ns - !children);
          Stack.push e stack)
        in_exit_order)
    by_domain;
  Hashtbl.fold
    (fun name (calls, total_ns, self_ns) l -> (name, { calls; total_ns; self_ns }) :: l)
    acc []

(* --- the result line --------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* The one-line JSON object the benchmark prints last. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

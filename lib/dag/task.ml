type t = { id : int; seq : float; alpha : float }

(* [exec_time]'s [int_of_float] is undefined for NaN and infinities, and
   past 2^53 s a float no longer holds every whole second. *)
let make ~id ~seq ~alpha =
  if not (Float.is_finite seq) then invalid_arg "Task.make: seq is NaN or infinite";
  if seq <= 0. then invalid_arg "Task.make: seq <= 0";
  if seq >= 0x1p53 then invalid_arg "Task.make: seq >= 2^53 s";
  if Float.is_nan alpha then invalid_arg "Task.make: alpha is NaN";
  if alpha < 0. || alpha > 1. then invalid_arg "Task.make: alpha not in [0,1]";
  { id; seq; alpha }

let exec_time_f t np =
  if np < 1 then invalid_arg "Task.exec_time: np < 1";
  t.seq *. (t.alpha +. ((1. -. t.alpha) /. float_of_int np))

let exec_time t np = Int.max 1 (int_of_float (ceil (exec_time_f t np)))

(* Processor counts skipped because their rounded duration equals a
   smaller count's (the output-preserving pruning of DESIGN.md). *)
let c_plateau_prunes = Mp_obs.Counter.make "amdahl.plateau_prunes"

type candidates = { bound : int; nps : int array; durs : int array }

let candidates t ~max_np =
  if max_np < 1 then invalid_arg "Task.candidates: max_np < 1";
  let nps = Array.make max_np 0 and durs = Array.make max_np 0 in
  let count = ref 0 and prev = ref max_int in
  for np = 1 to max_np do
    let e = exec_time t np in
    if e < !prev then begin
      nps.(!count) <- np;
      durs.(!count) <- e;
      incr count;
      prev := e
    end
    else Mp_obs.Counter.incr c_plateau_prunes
  done;
  { bound = max_np; nps = Array.sub nps 0 !count; durs = Array.sub durs 0 !count }

let alloc_candidates t ~max_np =
  if max_np < 1 then invalid_arg "Task.alloc_candidates: max_np < 1";
  Array.to_list (candidates t ~max_np).nps
let work t np = np * exec_time t np
let speedup t np = exec_time_f t 1 /. exec_time_f t np
let pp ppf t = Format.fprintf ppf "t%d(seq=%.0fs, a=%.3f)" t.id t.seq t.alpha

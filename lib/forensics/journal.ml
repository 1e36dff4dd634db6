(* Typed decision journal, one per domain.

   Hot-path discipline mirrors Mp_obs: every probe first reads the
   calling domain's switch (behind the [counts] hint) and falls through
   on false — no allocation, no lock.  The switch, the entry buffer and
   the open placement all live in one domain-local record, so a
   journaled run on one domain neither sees nor disturbs work on any
   other. *)

type kind = Forward | Backward | Conservative | Online_forward

let kind_name = function
  | Forward -> "forward"
  | Backward -> "backward"
  | Conservative -> "conservative"
  | Online_forward -> "online"

type verdict = Leading | Beaten | No_fit | Early_cut | Window_closed | Misses_deadline

let verdict_name = function
  | Leading -> "leading"
  | Beaten -> "beaten"
  | No_fit -> "no-fit"
  | Early_cut -> "early-cut"
  | Window_closed -> "window-closed"
  | Misses_deadline -> "misses-deadline"

type cand = { procs : int; dur : int; fit : int option; verdict : verdict }

type placement = {
  kind : kind;
  task : int;
  anchor : int;
  bound : int;
  plateau_pruned : int;
  reference : int option;
  threshold : int option;
  lambda : float option;
  cands : cand list;
  won : (int * int * int) option;
}

type entry =
  | Placement of placement
  | Cpa_alloc of { p : int; iterations : int; n_tasks : int; total_alloc : int }
  | Cpa_map of { p : int; n_tasks : int; makespan : int }
  | Grant of { start : int; finish : int; procs : int; granted : bool }

(* --- per-domain state ------------------------------------------------ *)

type partial = {
  p_kind : kind;
  p_task : int;
  p_anchor : int;
  p_bound : int;
  p_pruned : int;
  mutable p_reference : int option;
  mutable p_threshold : int option;
  mutable p_lambda : float option;
  mutable p_cands : cand list; (* reversed *)
}

type state = {
  mutable on : bool;
  mutable entries : entry list; (* reversed *)
  mutable cur : partial option;
}

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { on = false; entries = []; cur = None })

let buf () = Domain.DLS.get key

(* How many domains are inside [record]: probes read it first, so a
   disabled probe is one plain load, not a DLS lookup.  The count sits
   mid-way through a padded block, alone on its cache line, because
   probes on every domain read it and a neighbour written by another
   domain would make each read a miss (a one-cell atomic cost
   deadline-solve several percent).  [count_lock] serializes updates;
   probes read without it, safely, since a recording domain always sees
   its own increment. *)
let counts = Array.make 17 0
let slot = 8
let count_lock = Mutex.create ()
let add_recording n = Mutex.protect count_lock (fun () -> counts.(slot) <- counts.(slot) + n)
let[@inline] enabled () = Array.unsafe_get counts slot > 0 && (buf ()).on

let record f =
  let b = buf () in
  let on = b.on and outer = b.entries and cur = b.cur in
  b.on <- true;
  b.entries <- [];
  b.cur <- None;
  add_recording 1;
  Fun.protect
    ~finally:(fun () ->
      add_recording (-1);
      (* an enclosing record keeps what this one captured *)
      b.entries <- (if on then b.entries @ outer else outer);
      b.on <- on;
      b.cur <- cur)
    (fun () ->
      let v = f () in
      (v, List.rev b.entries))

(* --- probe points ----------------------------------------------------- *)

let[@inline never] begin_placement_on k ~task ~anchor ~bound ~evaluated =
  let b = buf () in
  b.cur <-
    Some
      {
        p_kind = k;
        p_task = task;
        p_anchor = anchor;
        p_bound = bound;
        p_pruned = max 0 (bound - evaluated);
        p_reference = None;
        p_threshold = None;
        p_lambda = None;
        p_cands = [];
      }

let[@inline] begin_placement k ~task ~anchor ~bound ~evaluated =
  if enabled () then begin_placement_on k ~task ~anchor ~bound ~evaluated

let[@inline never] note_reference_on ~reference ~threshold ~lambda =
  match (buf ()).cur with
  | None -> () (* unmatched (switch flipped mid-placement): drop *)
  | Some p ->
      p.p_reference <- Some reference;
      p.p_threshold <- Some threshold;
      p.p_lambda <- Some lambda

let[@inline] note_reference ~reference ~threshold ~lambda =
  if enabled () then note_reference_on ~reference ~threshold ~lambda

let[@inline never] cand_on ~procs ~dur ~fit verdict =
  match (buf ()).cur with
  | None -> ()
  | Some p -> p.p_cands <- { procs; dur; fit; verdict } :: p.p_cands

let[@inline] cand ~procs ~dur ~fit verdict = if enabled () then cand_on ~procs ~dur ~fit verdict

let close b won =
  match b.cur with
  | None -> ()
  | Some p ->
      b.cur <- None;
      b.entries <-
        Placement
          {
            kind = p.p_kind;
            task = p.p_task;
            anchor = p.p_anchor;
            bound = p.p_bound;
            plateau_pruned = p.p_pruned;
            reference = p.p_reference;
            threshold = p.p_threshold;
            lambda = p.p_lambda;
            cands = List.rev p.p_cands;
            won;
          }
        :: b.entries

let[@inline never] end_placement_on ~procs ~start ~finish =
  close (buf ()) (Some (procs, start, finish))

let[@inline] end_placement ~procs ~start ~finish =
  if enabled () then end_placement_on ~procs ~start ~finish

let[@inline never] end_placement_failed_on () = close (buf ()) None
let[@inline] end_placement_failed () = if enabled () then end_placement_failed_on ()

let[@inline never] cpa_alloc_on ~p ~iterations ~n_tasks ~total_alloc =
  let b = buf () in
  b.entries <- Cpa_alloc { p; iterations; n_tasks; total_alloc } :: b.entries

let[@inline] cpa_alloc ~p ~iterations ~n_tasks ~total_alloc =
  if enabled () then cpa_alloc_on ~p ~iterations ~n_tasks ~total_alloc

let[@inline never] cpa_map_on ~p ~n_tasks ~makespan =
  let b = buf () in
  b.entries <- Cpa_map { p; n_tasks; makespan } :: b.entries

let[@inline] cpa_map ~p ~n_tasks ~makespan = if enabled () then cpa_map_on ~p ~n_tasks ~makespan

let[@inline never] grant_on ~start ~finish ~procs ~granted =
  let b = buf () in
  b.entries <- Grant { start; finish; procs; granted } :: b.entries

let[@inline] grant ~start ~finish ~procs ~granted =
  if enabled () then grant_on ~start ~finish ~procs ~granted

(* --- export ----------------------------------------------------------- *)

let placements entries =
  List.filter_map (function Placement p -> Some p | _ -> None) entries

let won_slot entries ~task =
  List.fold_left
    (fun acc -> function
      | Placement p when p.task = task -> ( match p.won with Some _ as w -> w | None -> acc)
      | _ -> acc)
    None entries

let opt_int = function None -> "null" | Some v -> string_of_int v

let cand_json c =
  Printf.sprintf "{\"procs\":%d,\"dur\":%d,\"fit\":%s,\"verdict\":\"%s\"}" c.procs c.dur
    (opt_int c.fit) (verdict_name c.verdict)

let entry_json = function
  | Placement p ->
      let won =
        match p.won with
        | None -> "null"
        | Some (procs, start, finish) ->
            Printf.sprintf "{\"procs\":%d,\"start\":%d,\"finish\":%d}" procs start finish
      in
      let conservative =
        match (p.reference, p.threshold, p.lambda) with
        | Some r, Some t, Some l ->
            Printf.sprintf ",\"reference\":%d,\"threshold\":%d,\"lambda\":%g,\"slack\":%d" r t l
              (t - r)
        | _ -> ""
      in
      Printf.sprintf
        "{\"event\":\"placement\",\"kind\":\"%s\",\"task\":%d,\"anchor\":%d,\"bound\":%d,\"plateau_pruned\":%d%s,\"candidates\":[%s],\"won\":%s}"
        (kind_name p.kind) p.task p.anchor p.bound p.plateau_pruned conservative
        (String.concat "," (List.map cand_json p.cands))
        won
  | Cpa_alloc { p; iterations; n_tasks; total_alloc } ->
      Printf.sprintf
        "{\"event\":\"cpa_alloc\",\"p\":%d,\"iterations\":%d,\"n_tasks\":%d,\"total_alloc\":%d}" p
        iterations n_tasks total_alloc
  | Cpa_map { p; n_tasks; makespan } ->
      Printf.sprintf "{\"event\":\"cpa_map\",\"p\":%d,\"n_tasks\":%d,\"makespan\":%d}" p n_tasks
        makespan
  | Grant { start; finish; procs; granted } ->
      Printf.sprintf "{\"event\":\"grant\",\"start\":%d,\"finish\":%d,\"procs\":%d,\"granted\":%b}"
        start finish procs granted

let to_jsonl entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_json e);
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let story entries =
  let buf = Buffer.create 4096 in
  let anchor_label = function Forward | Online_forward -> "ready" | Backward | Conservative -> "dl" in
  List.iter
    (function
      | Placement p ->
          Buffer.add_string buf
            (Printf.sprintf "task %d [%s] %s=%d bound<=%d" p.task (kind_name p.kind)
               (anchor_label p.kind) p.anchor p.bound);
          if p.plateau_pruned > 0 then
            Buffer.add_string buf (Printf.sprintf " (%d plateau-pruned)" p.plateau_pruned);
          (match (p.reference, p.threshold, p.lambda) with
          | Some r, Some t, Some l ->
              Buffer.add_string buf
                (Printf.sprintf "\n  reference S=%d, lambda=%.2f -> threshold %d (slack +%d)" r l t
                   (t - r))
          | _ -> ());
          Buffer.add_char buf '\n';
          List.iter
            (fun c ->
              Buffer.add_string buf
                (match c.fit with
                | Some s ->
                    Printf.sprintf "  np=%-4d dur=%-8d fit @%-10d %s\n" c.procs c.dur s
                      (verdict_name c.verdict)
                | None ->
                    Printf.sprintf "  np=%-4d dur=%-8d %s\n" c.procs c.dur
                      (verdict_name c.verdict)))
            p.cands;
          Buffer.add_string buf
            (match p.won with
            | Some (procs, start, finish) ->
                Printf.sprintf "  => placed: %d procs @ [%d, %d)\n" procs start finish
            | None -> "  => FAILED (no feasible pair in the window)\n")
      | Cpa_alloc { p; iterations; n_tasks; total_alloc } ->
          Buffer.add_string buf
            (Printf.sprintf "cpa-alloc: p=%d, %d tasks, %d iterations, total alloc %d\n" p n_tasks
               iterations total_alloc)
      | Cpa_map { p; n_tasks; makespan } ->
          Buffer.add_string buf
            (Printf.sprintf "cpa-map: p=%d, %d tasks, reference makespan %d\n" p n_tasks makespan)
      | Grant { start; finish; procs; granted } ->
          Buffer.add_string buf
            (Printf.sprintf "online competitor [%d, %d) x%d: %s\n" start finish procs
               (if granted then "granted" else "rejected")))
    entries;
  Buffer.contents buf

(* Mp_forensics: the decision journal must be record-only (enabling it
   changes no scheduler output, and what it records matches the emitted
   schedule exactly), the calendar analytics must satisfy the exact
   area identities, the renderers must stay well-formed on edge cases,
   and the perf-baseline comparison must accept itself and reject
   injected regressions.  Also covers the Dag_io text format and the
   CLI's one-line error handling for unreadable input files. *)

module Rng = Mp_prelude.Rng
module Dag_gen = Mp_dag.Dag_gen
module Dag_io = Mp_dag.Dag_io
module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Env = Mp_core.Env
module Ressched = Mp_core.Ressched
module Deadline = Mp_core.Deadline
module Online = Mp_core.Online
module Schedule = Mp_cpa.Schedule
module Journal = Mp_forensics.Journal
module Analytics = Mp_forensics.Analytics
module Render = Mp_forensics.Render
module Baseline = Mp_forensics.Baseline

let contains hay needle = Re.execp (Re.compile (Re.str needle)) hay

(* Random busy calendar, as in test_obs.ml. *)
let busy_calendar ?(p = 8) ?(n_res = 10) ?(horizon = 40_000) seed =
  let rng = Rng.create seed in
  let rec add cal k =
    if k = 0 then cal
    else begin
      let start = Rng.int rng horizon in
      let dur = 600 + Rng.int rng 4_000 in
      let procs = 1 + Rng.int rng (max 1 (p / 2)) in
      match Calendar.reserve_opt cal (Reservation.make ~start ~finish:(start + dur) ~procs) with
      | Some cal -> add cal (k - 1)
      | None -> add cal (k - 1)
    end
  in
  add (Calendar.create ~procs:p) n_res

let busy_env ?p ?n_res seed =
  let calendar = busy_calendar ?p ?n_res seed in
  Env.make ~calendar ~q:(Calendar.average_available calendar ~from_:0 ~until:40_000)

let random_dag seed n = Dag_gen.generate (Rng.create seed) { Dag_gen.default with n }

(* ------------------------------------------------------------------ *)
(* Analytics: exact area identities on random calendars *)

let test_analytics_identities =
  QCheck.Test.make ~count:50 ~name:"utilization + idle fraction = 1 (exact areas)"
    QCheck.(pair small_nat (int_range 0 25))
    (fun (seed, n_res) ->
      let p = 4 + (seed mod 13) in
      let cal = busy_calendar ~p ~n_res (seed + 1) in
      let a = Analytics.analyze cal ~from_:0 ~until:40_000 in
      let span = 40_000 in
      let holes_area =
        List.fold_left
          (fun acc (h : Analytics.hole) -> acc + (h.procs * (h.finish - h.start)))
          0 a.holes
      in
      let hist_total = Array.fold_left (fun acc (_, c) -> acc + c) 0 a.hole_histogram in
      a.busy_area + a.idle_area = p * span
      && holes_area = a.idle_area
      && hist_total = List.length a.holes
      && Float.abs (a.utilization +. a.idle_fraction -. 1.) < 1e-9
      && a.fragmentation >= 0.
      && a.fragmentation <= 1.)

let test_analytics_empty_and_full () =
  let p = 6 in
  let empty = Calendar.create ~procs:p in
  let a = Analytics.analyze empty ~from_:0 ~until:1_000 in
  Alcotest.(check int) "empty calendar: idle area" (p * 1_000) a.Analytics.idle_area;
  Alcotest.(check int) "empty calendar: one hole" 1 (List.length a.holes);
  Alcotest.(check (float 1e-9)) "empty calendar: fragmentation 0" 0. a.fragmentation;
  let full =
    Calendar.reserve empty (Reservation.make ~start:0 ~finish:1_000 ~procs:p)
  in
  let a = Analytics.analyze full ~from_:0 ~until:1_000 in
  Alcotest.(check int) "full calendar: busy area" (p * 1_000) a.Analytics.busy_area;
  Alcotest.(check int) "full calendar: no holes" 0 (List.length a.holes);
  Alcotest.(check (float 1e-9)) "full calendar: utilization 1" 1. a.utilization;
  Alcotest.(check (float 1e-9)) "full calendar: fragmentation 0" 0. a.fragmentation

let test_occupancy_shares () =
  let p = 8 in
  let r1 = Reservation.make ~start:0 ~finish:100 ~procs:2 in
  let r2 = Reservation.make ~start:50 ~finish:200 ~procs:4 in
  let cal = Calendar.reserve (Calendar.reserve (Calendar.create ~procs:p) r1) r2 in
  let occ = Analytics.occupancy cal ~from_:0 ~until:200 [ r1; r2 ] in
  let total_share = List.fold_left (fun acc (_, _, s) -> acc +. s) 0. occ in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1. total_share;
  let area1 = match occ with (_, a, _) :: _ -> a | [] -> -1 in
  Alcotest.(check int) "r1 area" 200 area1

(* ------------------------------------------------------------------ *)
(* Journal: enabling it changes no scheduler output *)

let test_journal_does_not_change_schedules =
  QCheck.Test.make ~count:25 ~name:"journaling does not change scheduler output"
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let env = busy_env (s1 + 1) in
      let dag = random_dag (s2 + 1) 15 in
      let plain = Ressched.schedule env dag in
      let journaled, _ = Journal.record (fun () -> Ressched.schedule env dag) in
      let deadline = 2 * Schedule.turnaround plain in
      let plain_dl =
        Deadline.resource_conservative ~lambda:0.3 Deadline.DL_RC_CPAR env dag ~deadline
      in
      let journaled_dl, _ =
        Journal.record (fun () ->
            Deadline.resource_conservative ~lambda:0.3 Deadline.DL_RC_CPAR env dag ~deadline)
      in
      plain = journaled && plain_dl = journaled_dl)

(* Every scheduled task must have a journal entry whose winning pair is
   exactly the emitted slot. *)
let check_won_matches sched entries =
  Array.iteri
    (fun i (s : Schedule.slot) ->
      match Journal.won_slot entries ~task:i with
      | None -> Alcotest.failf "task %d has no successful journal entry" i
      | Some (procs, start, finish) ->
          if procs <> s.procs || start <> s.start || finish <> s.finish then
            Alcotest.failf "task %d: journal says %d procs @ [%d, %d), schedule says %d @ [%d, %d)"
              i procs start finish s.procs s.start s.finish)
    sched.Schedule.slots

let test_journal_matches_ressched () =
  let env = busy_env 3 in
  let dag = random_dag 4 20 in
  let sched, entries = Journal.record (fun () -> Ressched.schedule env dag) in
  check_won_matches sched entries;
  Alcotest.(check int) "one placement per task" (Dag.n dag)
    (List.length (Journal.placements entries))

let test_journal_matches_deadline () =
  let env = busy_env 5 in
  let dag = random_dag 6 15 in
  let loose = 2 * Schedule.turnaround (Ressched.schedule env dag) in
  let sched, entries =
    Journal.record (fun () ->
        Deadline.resource_conservative ~lambda:0.5 Deadline.DL_RC_CPAR env dag ~deadline:loose)
  in
  match sched with
  | None -> Alcotest.fail "loose deadline should be feasible"
  | Some sched ->
      check_won_matches sched entries;
      (* at least one conservative placement must carry the λ-relaxation
         context *)
      let with_ref =
        List.filter (fun (p : Journal.placement) -> p.reference <> None)
          (Journal.placements entries)
      in
      Alcotest.(check bool) "reference context recorded" true (with_ref <> []);
      List.iter
        (fun (p : Journal.placement) ->
          match (p.reference, p.threshold) with
          | Some r, Some t ->
              if t < r then Alcotest.failf "task %d: threshold %d below reference %d" p.task t r
          | _ -> ())
        with_ref

(* A prepare or schedule runs CPA once per distinct processor count: the
   order, bounds, reference and bounded fallback share one allocation.
   The [cpa.allocate.calls] counter counts the runs; the journal still
   records one [cpa_alloc] per use (the [p] of each, in order), so
   explain reports stay as they were. *)
let test_one_cpa_alloc_per_procs () =
  let env = busy_env 13 in
  let dag = random_dag 14 12 in
  let { Env.p; q; _ } = env in
  if q = p then Alcotest.fail "the test needs q < p";
  let allocations f =
    Mp_obs.with_enabled (fun () ->
        let calls () =
          Option.value ~default:0
            (List.assoc_opt "cpa.allocate.calls" (Mp_obs.Snapshot.take ()).Mp_obs.Snapshot.counters)
        in
        let c0 = calls () in
        let _, entries = Journal.record f in
        let used = List.filter_map (function Journal.Cpa_alloc { p; _ } -> Some p | _ -> None) entries in
        (calls () - c0, used))
  in
  let check name (runs, used) ~want_runs ~want_used =
    Alcotest.(check int) (name ^ ": allocations run") want_runs runs;
    Alcotest.(check (list int)) (name ^ ": allocations journaled") want_used used
  in
  List.iter
    (fun ((a : Mp_core.Algo.deadline), want_used) ->
      let distinct = List.length (List.sort_uniq compare want_used) in
      check (a.name ^ " prepare")
        (allocations (fun () ->
             let (_ : deadline:int -> Schedule.t option) = a.prepare env dag in
             ()))
        ~want_runs:distinct ~want_used)
    (List.combine Mp_core.Algo.deadline_all
       [ [ q ]; [ q; p ]; [ q; q ]; [ q; p ]; [ q; q ]; [ q; q ]; [ q; q; q ] ]);
  List.iter
    (fun (bd, want_runs, want_used) ->
      check (Mp_core.Bound.name bd)
        (allocations (fun () -> ignore (Ressched.schedule ~bd env dag)))
        ~want_runs ~want_used)
    [ (Mp_core.Bound.BD_CPAR, 1, [ q; q ]); (BD_CPA, 2, [ q; p ]); (BD_ALL, 1, [ q ]) ]

let test_journal_online_grants () =
  let env = busy_env 7 in
  let dag = random_dag 8 10 in
  let events =
    Array.init (Dag.n dag) (fun k ->
        if k = 1 then [ Mp_service.Request.Reserve { start = 5_000; dur = 1_000; procs = 2 } ]
        else [])
  in
  let (_sched, granted), entries = Journal.record (fun () -> Online.schedule env ~events dag) in
  let grants =
    List.filter_map (function Journal.Grant { granted; _ } -> Some granted | _ -> None) entries
  in
  Alcotest.(check int) "one grant decision journaled" 1 (List.length grants);
  Alcotest.(check int) "granted list consistent with journal" (List.length granted)
    (List.length (List.filter Fun.id grants))

let test_journal_jsonl_and_story () =
  let env = busy_env 11 in
  let dag = random_dag 12 8 in
  let _, entries = Journal.record (fun () -> Ressched.schedule env dag) in
  let jsonl = Journal.to_jsonl entries in
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool) "JSONL line is an object" true
          (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}'))
    (String.split_on_char '\n' jsonl);
  Alcotest.(check bool) "jsonl has placements" true (contains jsonl "\"event\":\"placement\"");
  let story = Journal.story entries in
  Alcotest.(check bool) "story mentions a placement" true (contains story "=> placed:")

(* [record] nests, and restores the previous state on every exit. *)
let test_journal_record_nests () =
  let grant start = Journal.grant ~start ~finish:(start + 1) ~procs:1 ~granted:true in
  let starts = List.filter_map (function Journal.Grant g -> Some g.start | _ -> None) in
  let raising f =
    match Journal.record (fun () -> f (); failwith "boom") with
    | _ -> Alcotest.fail "record swallowed the exception"
    | exception Failure _ -> ()
  in
  let ((), inner), outer =
    Journal.record (fun () ->
        grant 1;
        let r = Journal.record (fun () -> grant 2) in
        grant 3;
        r)
  in
  Alcotest.(check (list int)) "inner capture" [ 2 ] (starts inner);
  Alcotest.(check (list int)) "outer capture keeps the inner one" [ 1; 2; 3 ] (starts outer);
  let (), outer =
    Journal.record (fun () ->
        grant 1;
        raising (fun () -> grant 2);
        Alcotest.(check bool) "still on after an inner raise" true (Journal.enabled ());
        grant 3)
  in
  Alcotest.(check (list int)) "outer capture after an inner raise" [ 1; 2; 3 ] (starts outer);
  raising (fun () -> grant 4);
  Alcotest.(check bool) "off after a raise" false (Journal.enabled ());
  let (), after = Journal.record (fun () -> grant 5) in
  Alcotest.(check (list int)) "nothing left over from a raise" [ 5 ] (starts after)

(* The journal belongs to the recording domain: a schedule running on
   another domain while this one records neither shows up in the capture
   nor sees the journal on. *)
let test_journal_domain_isolation () =
  let env = busy_env 3 and dag = random_dag 4 20 in
  let other_env = busy_env 13 and other_dag = random_dag 14 20 in
  let sequential = Journal.record (fun () -> Ressched.schedule env dag) in
  let started = Atomic.make false and stop = Atomic.make false in
  let concurrent =
    Journal.record (fun () ->
        let other =
          Domain.spawn (fun () ->
              Atomic.set started true;
              let rec loop saw_on =
                let saw_on = saw_on || Journal.enabled () in
                ignore (Ressched.schedule other_env other_dag);
                if Atomic.get stop then saw_on else loop saw_on
              in
              loop false)
        in
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        let r = Ressched.schedule env dag in
        Atomic.set stop true;
        Alcotest.(check bool) "journal off on the spawned domain" false (Domain.join other);
        r)
  in
  Alcotest.(check bool) "capture equals the sequential capture" true (concurrent = sequential)

(* The zero-overhead contract, as in test_obs.ml: with the journal off,
   every probe is one domain-local load and a branch, no allocation. *)
let test_disabled_probes_do_not_allocate () =
  Alcotest.(check bool) "journal is off" false (Journal.enabled ());
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Journal.begin_placement Journal.Forward ~task:i ~anchor:0 ~bound:4 ~evaluated:4;
    Journal.note_reference ~reference:0 ~threshold:i ~lambda:0.5;
    Journal.cand ~procs:1 ~dur:i ~fit:None Journal.No_fit;
    Journal.end_placement ~procs:1 ~start:0 ~finish:i;
    Journal.end_placement_failed ();
    Journal.cpa_alloc ~p:4 ~iterations:i ~n_tasks:2 ~total_alloc:3;
    Journal.cpa_map ~p:4 ~n_tasks:2 ~makespan:i;
    Journal.grant ~start:0 ~finish:i ~procs:1 ~granted:true
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool) "disabled probes allocate nothing" true (after -. before < 256.)

(* ------------------------------------------------------------------ *)
(* Renderers: well-formed SVG on edge cases *)

let check_svg name svg =
  Alcotest.(check bool) (name ^ ": starts with <svg") true
    (String.length svg > 5 && String.sub svg 0 4 = "<svg");
  Alcotest.(check bool) (name ^ ": ends with </svg>") true (contains svg "</svg>");
  Alcotest.(check bool) (name ^ ": no nan") false (contains svg "nan")

let test_svg_edge_cases () =
  let base = Calendar.create ~procs:4 in
  check_svg "empty slot list" (Render.gantt_svg ~base ~slots:[]);
  check_svg "single slot"
    (Render.gantt_svg ~base
       ~slots:[ { Render.label = "0"; start = 0; finish = 100; procs = 2 } ]);
  let full = Calendar.reserve base (Reservation.make ~start:0 ~finish:100_000 ~procs:4) in
  check_svg "fully reserved calendar"
    (Render.gantt_svg ~base:full
       ~slots:[ { Render.label = "0"; start = 100_000; finish = 100_100; procs = 4 } ]);
  check_svg "profile" (Render.profile_svg (busy_calendar 17) ~from_:0 ~until:40_000);
  check_svg "profile of empty window start" (Render.profile_svg base ~from_:0 ~until:1)

let test_svg_from_real_schedule () =
  let env = busy_env 19 in
  let dag = random_dag 20 12 in
  let sched = Ressched.schedule env dag in
  let svg = Render.gantt_svg ~base:env.calendar ~slots:(Schedule.render_slots sched) in
  check_svg "real schedule" svg;
  let html =
    Render.html ~title:"t" ~gantt:svg
      ~profile:(Render.profile_svg env.calendar ~from_:0 ~until:1_000)
      ~analytics:"a < b" ~story:"s & t"
  in
  Alcotest.(check bool) "html escapes pre text" true (contains html "a &lt; b");
  Alcotest.(check bool) "html embeds svg" true (contains html "<svg")

(* The text Gantt chart: a header line, one line per processor row, and
   competing reservations marked where no slot covers them. *)
let test_gantt_ascii_shape () =
  let base = Calendar.create ~procs:4 in
  let slots =
    [
      { Render.label = "0"; start = 0; finish = 600; procs = 2 };
      { Render.label = "1"; start = 600; finish = 1_800; procs = 4 };
    ]
  in
  let s = Render.gantt_ascii ~base ~slots in
  let lines = String.split_on_char '\n' s in
  (* header + 4 processor rows (+ trailing empty) *)
  Alcotest.(check int) "lines" 6 (List.length lines);
  Alcotest.(check int) "row width" 104 (String.length (List.nth lines 1));
  Alcotest.(check bool) "first slot marked" true (String.contains s 'a');
  Alcotest.(check bool) "second slot marked" true (String.contains s 'b');
  Alcotest.(check bool) "no competitor" false (String.contains s '#')

let test_gantt_ascii_competing_marks () =
  let base = Calendar.reserve (Calendar.create ~procs:4) (Reservation.make ~start:0 ~finish:1_000 ~procs:2) in
  let slots = [ { Render.label = "0"; start = 0; finish = 500; procs = 2 } ] in
  let s = Render.gantt_ascii ~base ~slots in
  Alcotest.(check bool) "has competing marks" true (String.contains s '#');
  Alcotest.(check bool) "has the slot" true (String.contains s 'a');
  (* 120 processors down-sample onto 40 rows *)
  let big = Render.gantt_ascii ~base:(Calendar.create ~procs:120) ~slots in
  Alcotest.(check int) "rows capped" 42 (List.length (String.split_on_char '\n' big))

(* ------------------------------------------------------------------ *)
(* Baseline: round trip and regression verdicts *)

let sample_run =
  {
    Baseline.schema = Baseline.schema_version;
    scale = "tiny";
    jobs = 2;
    total_s = 1.5;
    sections =
      [
        {
          Baseline.name = "Table 2";
          wall_s = 0.5;
          counters = [ ("calendar.reserve.calls", 100.) ];
          metrics = [ ("requests_per_s", 123.456) ];
        };
        { Baseline.name = "Table 4"; wall_s = 1.0; counters = []; metrics = [] };
      ];
  }

let test_baseline_roundtrip () =
  match Baseline.of_json (Baseline.to_json sample_run) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok run ->
      Alcotest.(check string) "scale" sample_run.scale run.Baseline.scale;
      Alcotest.(check int) "jobs" sample_run.jobs run.jobs;
      Alcotest.(check int) "sections" 2 (List.length run.sections);
      let s = List.hd run.sections in
      Alcotest.(check string) "section name" "Table 2" s.Baseline.name;
      Alcotest.(check (float 1e-6)) "wall" 0.5 s.wall_s;
      Alcotest.(check (float 1e-6)) "counter" 100. (List.assoc "calendar.reserve.calls" s.counters);
      Alcotest.(check (float 1e-6)) "metric" 123.456 (List.assoc "requests_per_s" s.metrics)

let test_baseline_compare_ok () =
  let v = Baseline.compare ~baseline:sample_run ~current:sample_run () in
  Alcotest.(check bool) "identical runs pass" true v.Baseline.ok

let test_baseline_compare_regressions () =
  let with_sections sections = { sample_run with Baseline.sections } in
  let slow =
    with_sections
      [
        {
          Baseline.name = "Table 2";
          wall_s = 50.;
          counters = [ ("calendar.reserve.calls", 100.) ];
          metrics = [];
        };
        { Baseline.name = "Table 4"; wall_s = 1.0; counters = []; metrics = [] };
      ]
  in
  Alcotest.(check bool) "injected slowdown fails" false
    (Baseline.compare ~baseline:sample_run ~current:slow ()).Baseline.ok;
  let hot =
    with_sections
      [
        {
          Baseline.name = "Table 2";
          wall_s = 0.5;
          counters = [ ("calendar.reserve.calls", 200.) ];
          metrics = [];
        };
        { Baseline.name = "Table 4"; wall_s = 1.0; counters = []; metrics = [] };
      ]
  in
  Alcotest.(check bool) "counter growth fails" false
    (Baseline.compare ~baseline:sample_run ~current:hot ()).Baseline.ok;
  let missing = with_sections [ List.nth sample_run.Baseline.sections 0 ] in
  Alcotest.(check bool) "missing section fails" false
    (Baseline.compare ~baseline:sample_run ~current:missing ()).Baseline.ok;
  let other_scale = { sample_run with Baseline.scale = "paper" } in
  Alcotest.(check bool) "scale mismatch fails" false
    (Baseline.compare ~baseline:sample_run ~current:other_scale ()).Baseline.ok

let test_baseline_bad_json () =
  (match Baseline.of_json "{" with
  | Ok _ -> Alcotest.fail "truncated JSON accepted"
  | Error msg -> Alcotest.(check bool) "parse error is one line" false (contains msg "\n"));
  match Baseline.of_json "{\"schema\":\"other\",\"scale\":\"t\",\"jobs\":1,\"total_s\":1,\"sections\":[]}" with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error msg -> Alcotest.(check bool) "names the schema" true (contains msg "other")

(* ------------------------------------------------------------------ *)
(* Dag_io *)

let test_dag_io_roundtrip () =
  let dag = random_dag 23 12 in
  match Dag_io.of_string (Dag_io.to_string dag) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok dag' ->
      Alcotest.(check int) "n" (Dag.n dag) (Dag.n dag');
      Alcotest.(check int) "edges" (Dag.n_edges dag) (Dag.n_edges dag');
      Array.iteri
        (fun i (tk : Task.t) ->
          let tk' = Dag.task dag' i in
          if tk.seq <> tk'.seq || tk.alpha <> tk'.alpha then
            Alcotest.failf "task %d drifted through the round trip" i)
        (Dag.tasks dag)

let test_dag_io_errors () =
  (match Dag_io.load "/nonexistent/path.dag" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ());
  (match Dag_io.of_string "task 0 bad x" with
  | Ok _ -> Alcotest.fail "malformed task accepted"
  | Error msg -> Alcotest.(check bool) "names the line" true (contains msg "line 1"));
  (match Dag_io.of_string "task 0 10 0.1\ntask 2 10 0.1\nedge 0 2" with
  | Ok _ -> Alcotest.fail "gap in ids accepted"
  | Error _ -> ());
  List.iter
    (fun (name, text) ->
      match Dag_io.of_string text with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error msg -> Alcotest.(check bool) (name ^ " names Task.make") true (contains msg "Task.make"))
    [
      ("NaN seq", "task 0 nan 0.1\ntask 1 10 0.1\nedge 0 1");
      ("huge seq", "task 0 10 0.1\ntask 1 1e300 0.1\nedge 0 1");
      ("infinite seq", "task 0 inf 0.5");
      ("NaN alpha", "task 0 100 nan");
    ];
  match Dag_io.of_string "" with
  | Ok _ -> Alcotest.fail "empty file accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* CLI: unreadable inputs exit non-zero with a one-line error *)

(* [dune runtest] runs us from [_build/default/test]; [dune exec
   test/test_forensics.exe] runs from the workspace root. *)
let mpres_exe () =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "mpres.exe");
      List.fold_left Filename.concat "_build" [ "default"; "bin"; "mpres.exe" ];
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> exe
  | None -> Alcotest.fail "mpres.exe not built (declared as a dune test dep)"

(* CLI runs put every artifact in a per-process temp dir, never the
   workspace root — stray cli_* files used to litter the repository. *)
let cli_tmp = lazy (Filename.temp_dir "mpres_cli" "")
let in_tmp name = Filename.concat (Lazy.force cli_tmp) name

let run_cli args =
  let exe = mpres_exe () in
  let out = in_tmp "cli_out.txt" and err_file = in_tmp "cli_err.txt" in
  let code = Sys.command (exe ^ " " ^ args ^ " > " ^ out ^ " 2> " ^ err_file) in
  let err = In_channel.with_open_text err_file In_channel.input_all in
  (code, err)

let check_cli_error name (code, err) =
  Alcotest.(check bool) (name ^ ": non-zero exit") true (code <> 0);
  Alcotest.(check bool) (name ^ ": one-line mpres error") true (contains err "mpres:");
  Alcotest.(check bool) (name ^ ": no raw backtrace") false (contains err "Raised at")

let test_cli_unreadable_inputs () =
  check_cli_error "schedule --dag" (run_cli "schedule -n 8 --dag /nonexistent.dag");
  check_cli_error "explain --dag" (run_cli "explain -n 8 --dag /nonexistent.dag");
  check_cli_error "schedule --swf" (run_cli "schedule -n 8 --swf /nonexistent.swf");
  let malformed = in_tmp "cli_malformed.dag" in
  Out_channel.with_open_text malformed (fun oc -> Out_channel.output_string oc "task 0 x y\n");
  check_cli_error "malformed dag" (run_cli ("explain -n 8 --dag " ^ malformed));
  let hostile = in_tmp "cli_hostile.dag" in
  Out_channel.with_open_text hostile (fun oc ->
      Out_channel.output_string oc
        "task 0 nan 0.1\ntask 1 1e300 0.1\ntask 2 100 nan\nedge 0 1\nedge 1 2\n");
  check_cli_error "schedule non-finite dag" (run_cli ("schedule --dag " ^ hostile));
  let infinite = in_tmp "cli_infinite.dag" in
  Out_channel.with_open_text infinite (fun oc -> Out_channel.output_string oc "task 0 10 0.1\ntask 1 inf 0.5\nedge 0 1\n");
  check_cli_error "deadline infinite dag" (run_cli ("deadline --dag " ^ infinite))

let test_cli_explain_formats () =
  let dag_file = in_tmp "cli_roundtrip.dag" in
  (match Dag_io.save dag_file (random_dag 29 6) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  let gantt = in_tmp "cli_gantt.svg" and journal = in_tmp "cli_journal.jsonl" in
  let code, _ = run_cli ("explain --dag " ^ dag_file ^ " --format svg -o " ^ gantt) in
  Alcotest.(check int) "explain svg exits 0" 0 code;
  let svg = In_channel.with_open_text gantt In_channel.input_all in
  check_svg "cli gantt" svg;
  let code, _ = run_cli ("explain --dag " ^ dag_file ^ " --format json -o " ^ journal) in
  Alcotest.(check int) "explain json exits 0" 0 code;
  let jsonl = In_channel.with_open_text journal In_channel.input_all in
  Alcotest.(check bool) "jsonl has placements" true (contains jsonl "\"event\":\"placement\"");
  Alcotest.(check bool) "jsonl has analytics" true (contains jsonl "\"event\":\"analytics\"")

(* ------------------------------------------------------------------ *)
(* Telemetry: JSONL rendering, headline summary, dashboard *)

module Telemetry = Mp_forensics.Telemetry

let telemetry_sample ~site ~t_end ?(served = []) ?(shed_queue = 0) ?(queue_peak = 0)
    ?(occupancy = 0.) ?(sojourns = []) () =
  let sojourn = Mp_obs.Hist.create () in
  List.iter (Mp_obs.Hist.add sojourn) sojourns;
  {
    Telemetry.site;
    t_end;
    window = 60;
    served;
    shed_queue;
    shed_budget = 0;
    queue_depth = 0;
    queue_peak;
    occupancy;
    breakpoints = 1;
    index_visits = 0;
    sojourn;
  }

let telemetry_series () =
  [
    telemetry_sample ~site:0 ~t_end:60
      ~served:[ ("granted", 3); ("rejected", 1) ]
      ~queue_peak:2 ~occupancy:0.5 ~sojourns:[ 1; 2; 40 ] ();
    telemetry_sample ~site:1 ~t_end:60 ();
    telemetry_sample ~site:0 ~t_end:120
      ~served:[ ("granted", 1) ]
      ~shed_queue:2 ~queue_peak:5 ~occupancy:1.0 ~sojourns:[ 700 ] ();
  ]

let test_telemetry_jsonl () =
  let samples = telemetry_series () in
  let jsonl = Telemetry.to_jsonl samples in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one line per sample" (List.length samples) (List.length lines);
  List.iter
    (fun line ->
      match Mp_prelude.Json.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "unparseable sample line: %s (%s)" line msg)
    lines;
  Alcotest.(check bool) "zero served counts dropped" false (contains jsonl "\"rejected\":0");
  Alcotest.(check bool) "sparse sojourn buckets" true (contains jsonl "\"buckets\":[[");
  Alcotest.(check string) "empty series renders empty" "" (Telemetry.to_jsonl [])

let test_telemetry_headline () =
  let h = Telemetry.headline (telemetry_series ()) in
  Alcotest.(check int) "samples" 3 h.Telemetry.h_samples;
  Alcotest.(check int) "served sums windows" 5 h.Telemetry.h_served;
  Alcotest.(check int) "shed sums causes" 2 h.Telemetry.h_shed;
  Alcotest.(check (float 1e-9)) "shed rate" (2. /. 7.) h.Telemetry.h_shed_rate;
  Alcotest.(check int) "max queue depth is the peak" 5 h.Telemetry.h_max_queue_depth;
  Alcotest.(check (float 1e-9)) "peak occupancy" 1.0 h.Telemetry.h_peak_occupancy;
  (* 4 sojourn samples, sorted 1 2 40 700: p999 lands in 700's bucket *)
  Alcotest.(check bool) "p999 in the top sample's bucket" true
    (h.Telemetry.h_p999_sojourn >= 512. && h.Telemetry.h_p999_sojourn <= 700.);
  let empty = Telemetry.headline [] in
  Alcotest.(check int) "empty series" 0 empty.Telemetry.h_samples;
  Alcotest.(check (float 1e-9)) "empty shed rate" 0. empty.Telemetry.h_shed_rate

let test_telemetry_html () =
  let html = Telemetry.html ~title:"soak" (telemetry_series ()) in
  Alcotest.(check bool) "is a document" true (contains html "<!DOCTYPE html>");
  Alcotest.(check bool) "has the title" true (contains html "soak");
  Alcotest.(check bool) "has svg panels" true (contains html "<svg");
  Alcotest.(check bool) "has the headline block" true (contains html "shed");
  (* an empty series must still render a well-formed document *)
  let empty = Telemetry.html ~title:"empty" [] in
  Alcotest.(check bool) "empty series renders" true (contains empty "<!DOCTYPE html>")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mp_forensics"
    [
      ( "analytics",
        [
          QCheck_alcotest.to_alcotest test_analytics_identities;
          Alcotest.test_case "empty and full calendars" `Quick test_analytics_empty_and_full;
          Alcotest.test_case "occupancy shares" `Quick test_occupancy_shares;
        ] );
      ( "journal",
        [
          QCheck_alcotest.to_alcotest test_journal_does_not_change_schedules;
          Alcotest.test_case "won pairs match RESSCHED output" `Quick test_journal_matches_ressched;
          Alcotest.test_case "won pairs match RESSCHEDDL output" `Quick
            test_journal_matches_deadline;
          Alcotest.test_case "one CPA allocation per processor count" `Quick
            test_one_cpa_alloc_per_procs;
          Alcotest.test_case "online grant decisions" `Quick test_journal_online_grants;
          Alcotest.test_case "jsonl and story render" `Quick test_journal_jsonl_and_story;
          Alcotest.test_case "record nests and restores" `Quick test_journal_record_nests;
          Alcotest.test_case "domain isolation" `Quick test_journal_domain_isolation;
          Alcotest.test_case "disabled probes do not allocate" `Quick
            test_disabled_probes_do_not_allocate;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "ascii shape" `Quick test_gantt_ascii_shape;
          Alcotest.test_case "ascii competing marks" `Quick test_gantt_ascii_competing_marks;
        ] );
      ( "render",
        [
          Alcotest.test_case "svg edge cases" `Quick test_svg_edge_cases;
          Alcotest.test_case "svg from a real schedule" `Quick test_svg_from_real_schedule;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "jsonl" `Quick test_telemetry_jsonl;
          Alcotest.test_case "headline" `Quick test_telemetry_headline;
          Alcotest.test_case "html dashboard" `Quick test_telemetry_html;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "self-compare passes" `Quick test_baseline_compare_ok;
          Alcotest.test_case "regressions fail" `Quick test_baseline_compare_regressions;
          Alcotest.test_case "bad json rejected" `Quick test_baseline_bad_json;
        ] );
      ( "dag_io",
        [
          Alcotest.test_case "round trip" `Quick test_dag_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_dag_io_errors;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unreadable inputs" `Quick test_cli_unreadable_inputs;
          Alcotest.test_case "explain formats" `Quick test_cli_explain_formats;
        ] );
    ]

(* Benchmark harness: regenerates every table of the paper.

   One section per table of Mp_sim.Experiments.tables (Tables 2-10, the
   Section 4.3.1 comparison, the BL x BD matrix and the ablations) at a
   reduced, shape-preserving scale (set MPRES_SCALE=standard or =paper to
   grow), then the calendar-index ladder and the service soak.

   Run with:  dune exec bench/main.exe *)

module Experiments = Mp_sim.Experiments
module Scenario = Mp_sim.Scenario
module Dag_gen = Mp_dag.Dag_gen
module Ressched = Mp_core.Ressched
module Schedule = Mp_cpa.Schedule

let scale_name, scale =
  match Sys.getenv_opt "MPRES_SCALE" with
  | Some s -> (
      match List.assoc_opt s Experiments.scales with
      | Some sc -> (String.lowercase_ascii s, sc)
      | None ->
          Printf.eprintf "unknown MPRES_SCALE %S; using quick\n%!" s;
          ("quick", Experiments.quick))
  | None -> ("quick", Experiments.quick)

let jobs =
  match Sys.getenv_opt "MPRES_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 -> j
      | _ ->
          Printf.eprintf "invalid MPRES_JOBS %S; using the default\n%!" s;
          Mp_prelude.Pool.default_jobs ())
  | None -> Mp_prelude.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Observability: MPRES_TRACE=<path> enables the Mp_obs probes, prints a
   per-section counter/latency report, and writes a Chrome trace (<path>)
   plus a machine-readable BENCH_obs.json next to it at exit. *)

let trace_path = Sys.getenv_opt "MPRES_TRACE"

(* Per-section records accumulated for BENCH_core.json — the perf-baseline
   artifact, written on every run (traced or not; see DESIGN.md for the
   schema and bench/compare.exe for the regression check). *)
let core_sections : Mp_forensics.Baseline.section list ref = ref []

(* Every scenario section prints its own wall-clock, so BENCH_* trajectories
   show where the time goes — and what the MPRES_JOBS fan-out buys.  With
   MPRES_TRACE set it also prints the section's probe deltas and records
   them in BENCH_core.json.  [counters:false] marks sections whose probe
   counts are not reproducible, so the baseline comparison never sees
   them.  (Tables 9/10 count each timed cell once, with the probes off
   during the machine-speed-dependent repeats, so their counters are
   reproducible.) *)
(* MPRES_BENCH_ONLY=substr runs only the sections whose title contains
   [substr] — an ad-hoc profiling aid.  The resulting BENCH_core.json is
   partial, so never feed it to bench/compare.exe as a baseline. *)
let section_filter = Sys.getenv_opt "MPRES_BENCH_ONLY"

(* Machine-speed-dependent numbers a section wants in BENCH_core.json
   (throughput, latency percentiles): reported side by side by
   bench/compare.exe, never gated — deterministic quantities belong in
   the counters instead. *)
let pending_metrics : (string * float) list ref = ref []
let set_metrics kvs = pending_metrics := kvs

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let section ?(counters = true) title f =
  match section_filter with
  | Some sub when not (contains_substring title sub) ->
      Printf.printf "\n=== %s === (skipped: MPRES_BENCH_ONLY=%s)\n%!" title sub
  | _ ->
  Printf.printf "\n=== %s ===\n\n%!" title;
  pending_metrics := [];
  let before =
    if trace_path = None then None else Some (Mp_obs.Snapshot.take ())
  in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\n[%s: %.2f s wall-clock]\n%!" title wall_s;
  let counter_deltas =
    match before with
    | None -> []
    | Some earlier ->
        let delta = Mp_obs.Snapshot.sub (Mp_obs.Snapshot.take ()) ~earlier in
        let text = Mp_obs.Report.text delta in
        if text <> "" then Printf.printf "[%s: probes]\n%s%!" title text;
        if not counters then []
        else
          (* Every remaining counter — including the index tree's
             node-visit and descent counts — is deterministic for a given
             scale/jobs, so all non-zero deltas ride into the baseline.
             The exception is the pool's steal-traffic family (which
             worker claims which chunk depends on OS scheduling): it must
             not be gated. *)
          let nondeterministic = function
            | "pool.steals" | "pool.tasks_stolen" | "pool.busy_ns" -> true
            | _ -> false
          in
          List.filter_map
            (fun (k, v) ->
              if v = 0 || nondeterministic k then None
              else Some (k, float_of_int v))
            delta.Mp_obs.Snapshot.counters
  in
  core_sections :=
    { Mp_forensics.Baseline.name = title; wall_s; counters = counter_deltas; metrics = !pending_metrics }
    :: !core_sections

(* ------------------------------------------------------------------ *)
(* Service soak: the scheduling service under a seeded sustained load of
   typed requests (see "Scheduling service" in DESIGN.md).  The stream and
   every response are deterministic for a given scale — the response-kind
   counts ride into the baseline as [service.*] counters when traced —
   while throughput and latency percentiles are machine-speed dependent
   and go into the section's [metrics] (reported, never gated). *)

let service_n =
  match scale_name with
  | "tiny" -> 2_000
  | "standard" -> 20_000
  | "paper" -> 50_000
  | "huge" -> 10_000
  | _ (* quick *) -> 10_000

let bench_service ~pool () =
  let sites = 4 and procs = 64 and queue_limit = 32 and budget = 60 in
  let stats_every = 60 in
  let rng = Mp_prelude.Rng.create (scale.Experiments.seed + 0x5e7e) in
  let envelopes =
    Mp_service.Stream.generate rng ~budget
      ~algos:[ "BD_CPAR"; "DL_RCBD_CPAR-l" ]
      ~sites ~procs ~n:service_n ()
  in
  let specs =
    Array.init sites (fun _ ->
        { Mp_service.Engine.calendar = Mp_platform.Calendar.create ~procs; q = procs })
  in
  let engine = Mp_core.Serve.engine ~sites:specs () in
  let sink = Mp_service.Engine.Stats.sink ~every:stats_every () in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Mp_service.Engine.run ~pool ~queue_limit ~measure:true ~stats:sink engine envelopes
  in
  let wall = Unix.gettimeofday () -. t0 in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (o : Mp_service.Engine.outcome) ->
      let k = Mp_service.Response.kind o.response in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    outcomes;
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  let latency =
    Mp_obs.Summary.of_list (List.map (fun (o : Mp_service.Engine.outcome) -> o.wall_ns) outcomes)
  in
  let rps = if wall > 0. then float_of_int (List.length outcomes) /. wall else 0. in
  let samples = Mp_service.Engine.Stats.samples sink in
  let headline = Mp_forensics.Telemetry.headline samples in
  let html =
    Mp_forensics.Telemetry.html
      ~title:(Printf.sprintf "Service soak telemetry (%s scale)" scale_name)
      samples
  in
  Out_channel.with_open_text "BENCH_telemetry.html" (fun oc ->
      Out_channel.output_string oc html);
  Printf.printf "service soak: %d requests over %d sites (queue-limit %d, budget %d s)\n"
    service_n sites queue_limit budget;
  Printf.printf "  %s\n"
    (String.concat "  "
       (List.map (fun k -> Printf.sprintf "%s %d" k (count k)) Mp_service.Response.kinds));
  Printf.printf
    "  %.0f requests/s; per-request latency p50 %.1f us, p99 %.1f us, p999 %.1f us\n" rps
    (float_of_int latency.p50 /. 1e3)
    (float_of_int latency.p99 /. 1e3)
    (float_of_int latency.p999 /. 1e3);
  Printf.printf
    "  telemetry: %d sample(s), shed rate %.4f, queue peak %d, p999 sojourn %.0f s \
     (BENCH_telemetry.html)\n"
    headline.h_samples headline.h_shed_rate headline.h_max_queue_depth headline.h_p999_sojourn;
  set_metrics
    [
      ("requests_per_s", rps);
      ("latency_p50_us", float_of_int latency.p50 /. 1e3);
      ("latency_p99_us", float_of_int latency.p99 /. 1e3);
      ("latency_p999_us", float_of_int latency.p999 /. 1e3);
      ("shed_rate", headline.h_shed_rate);
      ("max_queue_depth", float_of_int headline.h_max_queue_depth);
      ("p999_sojourn_s", headline.h_p999_sojourn);
      ("mean_occupancy", headline.h_mean_occupancy);
    ]

(* ------------------------------------------------------------------ *)
(* Calendar index: build 10^4-10^6-reservation calendars by folding
   {!Calendar.reserve_opt} and measure the {!Mp_index} tree counters on
   a fixed batch of fit queries against the built snapshot.  The ladder pins
   the asymptotics: visits per query must grow ~log R across rungs, not
   ~R.  MPRES_INDEX_ASSERT=1 turns the bound into a hard failure (the CI
   huge-tier smoke sets it); MPRES_INDEX_MAX_R clamps the ladder so a
   bounded smoke stays cheap.  Everything is seeded: the per-rung visit
   counts are deterministic and ride into BENCH_core.json via the
   section's [index.*] counter deltas when traced. *)

let index_assert = Sys.getenv_opt "MPRES_INDEX_ASSERT" = Some "1"

let index_max_r =
  match Sys.getenv_opt "MPRES_INDEX_MAX_R" with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some r when r >= 1_000 -> Some r
      | _ ->
          Printf.eprintf "invalid MPRES_INDEX_MAX_R %S; ignoring\n%!" s;
          None)

let index_rungs =
  let base =
    match scale_name with
    | "tiny" -> [ 2_000; 8_000; 32_000 ]
    | "standard" | "paper" -> [ 32_000; 128_000; 512_000 ]
    | "huge" -> [ 125_000; 500_000; 1_000_000 ]
    | _ (* quick *) -> [ 8_000; 32_000; 128_000 ]
  in
  match index_max_r with
  | None -> base
  | Some cap -> List.sort_uniq compare (List.map (fun r -> min r cap) base)

let log2f x = log (float_of_int x) /. log 2.

let bench_index () =
  let module Calendar = Mp_platform.Calendar in
  let module Reservation = Mp_platform.Reservation in
  let q = 64 and n_queries = 2_000 in
  Printf.printf
    "calendar index ladder (procs/site %d, %d earliest + %d latest queries per rung%s)\n"
    q n_queries n_queries
    (match index_max_r with
    | Some cap -> Printf.sprintf ", MPRES_INDEX_MAX_R=%d" cap
    | None -> "");
  Printf.printf "  %10s %12s %8s %11s %11s %12s %8s\n" "R" "breakpoints" "build[s]"
    "visits/res" "visits/qry" "queries/s" "fit%";
  let rows =
    List.map
      (fun r_target ->
        Mp_obs.with_enabled (fun () ->
            let rng = Mp_prelude.Rng.create (scale.Experiments.seed + r_target) in
            (* ~60% steady-state utilization: loaded enough that fit
               walks cross blocked runs, loose enough that the target
               reservation count is reached without stalling. *)
            let horizon = 215 * r_target in
            let visits snap =
              Option.value ~default:0
                (List.assoc_opt "index.node_visits" snap.Mp_obs.Snapshot.counters)
            in
            let s0 = Mp_obs.Snapshot.take () in
            let cal = ref (Calendar.create ~procs:q) in
            let t0 = Unix.gettimeofday () in
            let kept = ref 0 and attempts = ref 0 in
            while !kept < r_target && !attempts < 3 * r_target do
              incr attempts;
              let start = Mp_prelude.Rng.int rng horizon in
              let dur = 60 + Mp_prelude.Rng.int rng 3541 in
              let procs = 1 + Mp_prelude.Rng.int rng 8 in
              match
                Calendar.reserve_opt !cal (Reservation.make ~start ~finish:(start + dur) ~procs)
              with
              | Some c ->
                  cal := c;
                  incr kept
              | None -> ()
            done;
            let build_s = Unix.gettimeofday () -. t0 in
            let s1 = Mp_obs.Snapshot.take () in
            let cal = !cal in
            let fits = ref 0 in
            let t1 = Unix.gettimeofday () in
            (* Queries drawn like the reservations themselves (procs well
               under the steady-state free capacity): each fit resolves
               within a bounded number of blocked runs regardless of R, so
               visits/query isolates the per-descent cost.  Asking for
               procs near capacity instead would make the walk cross O(R)
               runs — a property of the workload, not of the index. *)
            for _ = 1 to n_queries do
              let procs = 1 + Mp_prelude.Rng.int rng 16 in
              let dur = 60 + Mp_prelude.Rng.int rng 3541 in
              let after = Mp_prelude.Rng.int rng horizon in
              (match Calendar.earliest_fit cal ~after ~procs ~dur with
              | Some _ -> incr fits
              | None -> ());
              let finish_by = 1 + Mp_prelude.Rng.int rng horizon in
              match Calendar.latest_fit cal ~earliest:0 ~finish_by ~procs ~dur with
              | Some _ -> incr fits
              | None -> ()
            done;
            let query_s = Unix.gettimeofday () -. t1 in
            let s2 = Mp_obs.Snapshot.take () in
            let bps = Calendar.breakpoints cal in
            let vpr = float_of_int (visits s1 - visits s0) /. float_of_int !attempts in
            let vpq =
              float_of_int (visits s2 - visits s1) /. float_of_int (2 * n_queries)
            in
            let qps =
              if query_s > 0. then float_of_int (2 * n_queries) /. query_s else 0.
            in
            let fit_pct = 100. *. float_of_int !fits /. float_of_int (2 * n_queries) in
            Printf.printf "  %10d %12d %8.2f %11.1f %11.1f %12.0f %7.1f%%\n%!" !kept bps
              build_s vpr vpq qps fit_pct;
            (r_target, !kept, bps, vpr, vpq, qps)))
      index_rungs
  in
  set_metrics
    (List.concat_map
       (fun (r_target, _, bps, _, vpq, qps) ->
         [
           (Printf.sprintf "r%d_breakpoints" r_target, float_of_int bps);
           (Printf.sprintf "r%d_visits_per_query" r_target, vpq);
           (Printf.sprintf "r%d_queries_per_s" r_target, qps);
         ])
       rows);
  (* The log-R pin.  Per rung: visits/query within a constant factor of
     log2(breakpoints) — a linear walk would exceed this a thousandfold
     at the top rungs — and visits/reserve within about three paths, the
     cost of one capacity descent plus one update descent.  Across the
     ladder: visits may grow at most like the log of the size ratio
     (with 2x headroom), never like the size ratio itself. *)
  if index_assert then begin
    let fail = ref false in
    List.iter
      (fun (r_target, _, bps, vpr, vpq, _) ->
        let bound = (8. *. log2f bps) +. 64. in
        if vpq > bound then begin
          Printf.eprintf "FAIL index ladder r=%d: visits/query %.1f > bound %.1f (log R ~ %.1f)\n%!"
            r_target vpq bound (log2f bps);
          fail := true
        end;
        let reserve_bound = (3. *. log2f bps) +. 16. in
        if vpr > reserve_bound then begin
          Printf.eprintf
            "FAIL index ladder r=%d: visits/reserve %.1f > bound %.1f (log R ~ %.1f)\n%!"
            r_target vpr reserve_bound (log2f bps);
          fail := true
        end)
      rows;
    (match (rows, List.rev rows) with
    | (r0, _, b0, _, v0, _) :: _, (r1, _, b1, _, v1, _) :: _ when r0 <> r1 && v0 > 0. ->
        let growth = v1 /. v0 and log_growth = log2f b1 /. log2f b0 in
        let bound = 2. *. log_growth in
        if growth > bound then begin
          Printf.eprintf
            "FAIL index ladder: visits/query grew %.2fx from R=%d to R=%d (log bound %.2fx, linear would be %.0fx)\n%!"
            growth r0 r1 bound
            (float_of_int b1 /. float_of_int b0);
          fail := true
        end
    | _ -> ());
    if !fail then exit 1;
    Printf.printf "  log-R visit bounds hold over the ladder (MPRES_INDEX_ASSERT)\n%!"
  end

let write_core_json total_s =
  let run =
    {
      Mp_forensics.Baseline.schema = Mp_forensics.Baseline.schema_version;
      scale = scale_name;
      jobs;
      total_s;
      sections = List.rev !core_sections;
    }
  in
  Out_channel.with_open_text "BENCH_core.json" (fun oc ->
      Out_channel.output_string oc (Mp_forensics.Baseline.to_json run));
  Printf.printf
    "Perf-baseline record written to BENCH_core.json (schema %s; diff against a committed \
     baseline with bench/compare.exe)\n%!"
    Mp_forensics.Baseline.schema_version

(* A representative Gantt chart of the recommended algorithm on the Table
   9/10 environment and default DAG — a quick visual sanity check,
   uploaded by CI. *)
let write_gantt_svg () =
  let app = { Scenario.label = "bench"; params = Dag_gen.default } in
  let env =
    match Mp_sim.Instance.grid5000 ~seed:scale.Experiments.seed ~app ~n_dags:1 ~n_cals:1 with
    | [ inst ] -> inst.env
    | _ -> assert false
  in
  let rng = Mp_prelude.Rng.create (Hashtbl.hash (scale.Experiments.seed, Dag_gen.default)) in
  let sched = Ressched.schedule env (Dag_gen.generate rng Dag_gen.default) in
  Out_channel.with_open_text "BENCH_gantt.svg" (fun oc ->
      Out_channel.output_string oc
        (Mp_forensics.Render.gantt_svg ~base:env.Mp_core.Env.calendar
           ~slots:(Schedule.render_slots sched)));
  Printf.printf "Representative Gantt chart written to BENCH_gantt.svg\n%!"

let write_obs_artifacts path =
  let snap = Mp_obs.Snapshot.take () in
  Mp_obs.Trace.write_chrome path snap;
  let json_path = Filename.concat (Filename.dirname path) "BENCH_obs.json" in
  Out_channel.with_open_bin json_path (fun oc ->
      Out_channel.output_string oc (Mp_obs.Report.to_json snap));
  Printf.printf "\n=== Observability (MPRES_TRACE) ===\n\n%s" (Mp_obs.Report.text snap);
  Printf.printf "\nChrome trace written to %s (load in Perfetto / chrome://tracing)\n" path;
  Printf.printf "Machine-readable probe dump written to %s\n%!" json_path

let () =
  (* surface the per-scenario wall-clock lines logged by Mp_sim.Experiments *)
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Info);
  Printf.printf
    "mpres benchmark harness (scale: n_app=%d n_res=%d n_dags=%d n_cals=%d, jobs=%d; set MPRES_SCALE / MPRES_JOBS to change)\n"
    scale.n_app scale.n_res scale.n_dags scale.n_cals jobs;
  (match trace_path with
  | Some path ->
      Mp_obs.enabled := true;
      Printf.printf "tracing enabled (MPRES_TRACE=%s)\n" path
  | None -> ());
  let total0 = Unix.gettimeofday () in
  Mp_prelude.Pool.with_pool ~jobs (fun pool ->
      section "Table 1 (application parameters are the generator defaults; see DESIGN.md)"
        (fun () ->
          Printf.printf "%d application specifications enumerated from Table 1\n"
            (List.length Scenario.app_specs));
      List.iter
        (fun (t : Experiments.table) ->
          section t.name (fun () -> print_string (t.text ~pool scale)))
        Experiments.tables;
      section "Calendar index" bench_index;
      section "Service" (fun () -> bench_service ~pool ()));
  Option.iter write_obs_artifacts trace_path;
  let total_s = Unix.gettimeofday () -. total0 in
  write_core_json total_s;
  write_gantt_svg ();
  Printf.printf "\nDone in %.2f s wall-clock (jobs=%d).\n" total_s jobs

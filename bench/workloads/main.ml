(* The repository benchmark's main program.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--jobs J] [--trace-out FILE]

   Runs one workload (see README.md) in rounds until [S] seconds have
   passed and p99 has ten samples beyond it, then prints every metric by
   name with its unit and, last, one JSON line.  [--trace 0] reports the
   end-to-end metrics; [--trace 1] replays each round with the Mp_obs
   probes on and reports the per-layer ledger instead.  [--jobs] sets the
   pool width (default: min 4 and the core count); [--trace-out] writes
   the last traced round as a Chrome trace.  Exits 1 when an output is
   wrong, 2 on a usage error. *)

module B = Bench_workloads
module Measure = B.Measure
module Ledger = B.Ledger
module Workload = B.Workload

type args = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;
  trace_out : string option;
}

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let jobs = ref (min 4 (Domain.recommended_domain_count ())) and trace_out = ref None in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--jobs J] [--trace-out FILE]\n\
     workloads: "
    ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)
  in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N seed of the run's inputs");
      ("--seconds", Arg.Set_int seconds, "S least time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger");
      ("--jobs", Arg.Set_int jobs, "J pool width");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE write a Chrome trace");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (Workload.find !workload, !seed) with
  | Some workload, Some seed when !seconds >= 1 && (!trace = 0 || !trace = 1) && !jobs >= 1 ->
      {
        workload;
        seed;
        seconds = float_of_int !seconds;
        trace = !trace = 1;
        jobs = !jobs;
        trace_out = !trace_out;
      }
  | _ ->
      Arg.usage specs usage;
      exit 2

(* A run never outlives this, whatever the sample rule still wants. *)
let max_run_s = 150.

(* Set-up is timed at least this often per run, also when one round
   fills the run's time. *)
let min_setups = 3

(* Enough events per domain that no traced round drops any. *)
let event_cap = 8_000_000

let () =
  let a = parse () in
  if a.trace then Mp_obs.set_event_cap event_cap;
  let cores = Domain.recommended_domain_count () in
  let ledger = Ledger.create () in
  let setups = ref 0 and setup_s = ref [] in
  let ops = ref 0 and failed = ref 0 and wall_ns = ref 0 in
  let latencies = Measure.tally [||] and quantum = ref 1 in
  (* [notes] explain ops already counted in [failed]; a [condemned] run
     (wrong digest, dropped trace events) fails every op *)
  let notes = ref [] and condemned = ref [] and last_snapshot = ref None in
  (* One round's set-up: a fresh pool plus the round's inputs.  The heap
     is compacted first, so a round's peak memory does not depend on how
     many rounds came before it. *)
  let set_up r =
    Gc.compact ();
    let t0 = Measure.now_ns () in
    let pool = Mp_prelude.Pool.create ~jobs:a.jobs () in
    let t1 = Measure.now_ns () in
    let run = a.workload.prepare pool ~seed:(Workload.round_seed a.seed r) in
    let t2 = Measure.now_ns () in
    incr setups;
    setup_s := Measure.seconds_between t0 t2 :: !setup_s;
    Ledger.add_series ledger "setup.inputs_s" (Measure.seconds_between t1 t2);
    Ledger.add_series ledger "setup.pool_start_s" (Measure.seconds_between t0 t1);
    (pool, run)
  in
  let start = Measure.now_ns () in
  let rec round r =
    let pool, run = set_up r in
    Fun.protect
      ~finally:(fun () -> Mp_prelude.Pool.shutdown pool)
      (fun () ->
        let p = run ~trace:false in
        ops := !ops + p.ops;
        failed := !failed + p.failed;
        wall_ns := !wall_ns + p.wall_ns;
        Measure.add_readings latencies p.latencies;
        quantum := p.quantum;
        Option.iter (fun n -> notes := Printf.sprintf "round %d: %s" r n :: !notes) p.note;
        Printf.printf "round %d: %d ops in %.3f s, digest %s\n%!" r p.ops
          (float_of_int p.wall_ns /. 1e9) p.digest;
        (match B.Goldens.find ~workload:a.workload.name ~seed:(Workload.round_seed a.seed r) with
        | Some d when d <> p.digest ->
            condemned := Printf.sprintf "round %d: digest %s, golden %s" r p.digest d :: !condemned
        | _ -> ());
        if a.trace then begin
          let t = run ~trace:true in
          let snap = Mp_obs.Snapshot.take () in
          if t.digest <> p.digest then
            condemned := Printf.sprintf "round %d: traced digest differs from untraced" r :: !condemned;
          Ledger.add_snapshot ledger snap;
          t.contribute ledger;
          Ledger.add_int ledger Ledger.k_ops t.ops;
          Ledger.add_int ledger Ledger.k_traced_wall t.wall_ns;
          Ledger.add_int ledger Ledger.k_untraced_wall p.wall_ns;
          Ledger.add ledger "gc.minor_words" p.minor_words;
          Ledger.add_int ledger "gc.major_collections" p.major_collections;
          Ledger.add_samples ledger "dag_latency" p.dag_latencies;
          Ledger.add_int ledger "latency.samples" (Array.length p.latencies);
          if a.trace_out <> None then last_snapshot := Some snap
        end);
    let elapsed = Measure.seconds_between start (Measure.now_ns ()) in
    let samples = Measure.count latencies in
    let want_more =
      elapsed < a.seconds || ((not a.trace) && not (Measure.enough_samples ~q:0.99 samples))
    in
    if want_more && elapsed < max_run_s then round (r + 1) else r + 1
  in
  let rounds = round 0 in
  for r = rounds to rounds + min_setups - !setups - 1 do
    Mp_prelude.Pool.shutdown (fst (set_up r))
  done;
  let n_lat = Measure.count latencies in
  if (not a.trace) && not (Measure.enough_samples ~q:0.99 n_lat) then
    Printf.printf "note: %d latency samples leave fewer than ten beyond p99\n" n_lat;
  let metrics =
    if a.trace then Ledger.metrics ledger ~width:a.jobs ~cores
    else
      let ms q = Measure.percentile ~quantum:!quantum latencies q /. 1e6 in
      [
        { Measure.name = "setup_s"; unit_ = "s"; value = Measure.median !setup_s };
        {
          name = "ops_per_s";
          unit_ = "ops/s";
          value = float_of_int !ops /. Measure.seconds_between 0 !wall_ns;
        };
        { name = "latency_p50_ms"; unit_ = "ms"; value = ms 0.50 };
        { name = "latency_p99_ms"; unit_ = "ms"; value = ms 0.99 };
        { name = "peak_rss_mb"; unit_ = "MiB"; value = Measure.peak_rss_mib () };
      ]
  in
  if a.trace && Ledger.get ledger "counter:obs.events.dropped" > 0. then
    condemned := "the trace dropped span events" :: !condemned;
  Option.iter
    (fun path -> Option.iter (Mp_obs.Trace.write_chrome path) !last_snapshot)
    a.trace_out;
  let failed = if !condemned = [] then !failed else !ops in
  let correct = failed = 0 in
  List.iter (fun w -> Printf.printf "WRONG %s\n" w) (List.rev_append !notes (List.rev !condemned));
  Printf.printf "%s seed %d: %d round(s), %d set-up(s), %d core(s), pool width %d, %d latency samples\n"
    a.workload.name a.seed rounds !setups cores a.jobs n_lat;
  List.iter
    (fun (m : Measure.metric) -> Printf.printf "  %-36s %16.6g %s\n" m.name m.value m.unit_)
    metrics;
  print_endline (Measure.result_line ~correct ~attempted:!ops ~failed metrics);
  exit (if correct then 0 else 1)

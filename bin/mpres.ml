(* mpres — command-line interface to the mixed-parallel advance-reservation
   scheduler library.

   Subcommands:
     gen-dag     draw a random application DAG and print it (dot or edges)
     gen-log     draw a synthetic workload log and print it as SWF
     schedule    solve RESSCHED on a random instance and print the schedule
     deadline    solve RESSCHEDDL (fixed deadline or tightest-deadline search)
     explain     solve an instance with the decision journal on and render
                 the forensics report (text, JSONL, SVG, or HTML)
     serve       run the scheduling service over a seeded (or replayed)
                 request stream and report throughput/latency
     experiment  regenerate the paper's tables

   The one-shot schedule/deadline/explain paths and the serve daemon all
   speak the same typed protocol (Mp_service.Request/Response) against
   the same engine (Mp_core.Serve wires the algorithm registry in). *)

open Cmdliner
module Rng = Mp_prelude.Rng
module Dag = Mp_dag.Dag
module Dag_gen = Mp_dag.Dag_gen
module Log_model = Mp_workload.Log_model
module Swf = Mp_workload.Swf
module Reservation_gen = Mp_workload.Reservation_gen
module Schedule = Mp_cpa.Schedule
module Algo = Mp_core.Algo
module Deadline = Mp_core.Deadline
module Env = Mp_core.Env
module Workflows = Mp_dag.Workflows
module Experiments = Mp_sim.Experiments
module Instance = Mp_sim.Instance
module Scenario = Mp_sim.Scenario
module Engine = Mp_service.Engine
module Request = Mp_service.Request
module Response = Mp_service.Response
module Stream = Mp_service.Stream
module Serve = Mp_core.Serve

(* One-shot service over the instance's calendar: the schedule, deadline
   and explain subcommands all submit through this engine, so the CLI and
   the serve daemon exercise the same code path. *)
let one_shot_engine (inst : Instance.t) =
  Serve.engine ~sites:[| { Engine.calendar = inst.env.calendar; q = inst.env.q } |] ()

let submit_one inst ~algo ~deadline =
  Engine.handle (one_shot_engine inst) ~site:0
    (Request.Submit_dag { dag = inst.Instance.dag; algo; deadline })

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (deterministic).")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~env:(Cmd.Env.info "MPRES_TRACE")
        ~doc:
          "Enable the Mp_obs probes and write a Chrome trace_event JSON to $(docv) (load it in \
           Perfetto or chrome://tracing); a text report of counters and probe latencies goes to \
           stderr.  Probes never change scheduling decisions.")

(* Run [f] with the probes on, then write the Chrome trace and print the
   text report to stderr (stdout carries the subcommand's own output). *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Mp_obs.enabled := true;
      let finally () =
        Mp_obs.enabled := false;
        let snap = Mp_obs.Snapshot.take () in
        Mp_obs.Trace.write_chrome path snap;
        let text = Mp_obs.Report.text snap in
        if text <> "" then Printf.eprintf "%s" text;
        Printf.eprintf "chrome trace written to %s\n%!" path
      in
      Fun.protect ~finally f

let jobs_t =
  Arg.(
    value
    & opt int (Mp_prelude.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~env:(Cmd.Env.info "MPRES_JOBS")
        ~doc:
          "Worker domains for the fan-out (default: cores - 1; 1 = sequential). Results are \
           bit-identical whatever the value.")

let dag_params_t =
  let n = Arg.(value & opt int 50 & info [ "n" ] ~doc:"Number of tasks.") in
  let alpha = Arg.(value & opt float 0.2 & info [ "alpha" ] ~doc:"Max sequential fraction.") in
  let width = Arg.(value & opt float 0.5 & info [ "width" ] ~doc:"DAG width parameter.") in
  let regularity = Arg.(value & opt float 0.5 & info [ "regularity" ] ~doc:"Level regularity.") in
  let density = Arg.(value & opt float 0.5 & info [ "density" ] ~doc:"Edge density.") in
  let jump = Arg.(value & opt int 1 & info [ "jump" ] ~doc:"Maximum level jump of edges.") in
  let make n alpha width regularity density jump =
    { Dag_gen.n; alpha; width; regularity; density; jump }
  in
  Term.(const make $ n $ alpha $ width $ regularity $ density $ jump)

let log_t =
  let log_conv =
    Arg.conv
      ( (fun s ->
          match Log_model.find s with
          | Some p -> Ok p
          | None -> Error (`Msg ("unknown log preset: " ^ s))),
        fun ppf p -> Format.pp_print_string ppf p.Log_model.name )
  in
  Arg.(
    value
    & opt log_conv Log_model.sdsc_blue
    & info [ "log" ] ~docv:"LOG" ~doc:"Workload preset: CTC_SP2, OSC_Cluster, SDSC_BLUE, SDSC_DS.")

let phi_t = Arg.(value & opt float 0.2 & info [ "phi" ] ~doc:"Fraction of jobs tagged as reservations.")

let method_t =
  let method_conv =
    Arg.conv
      ( (fun s ->
          match String.lowercase_ascii s with
          | "linear" -> Ok Reservation_gen.Linear
          | "expo" -> Ok Reservation_gen.Expo
          | "real" -> Ok Reservation_gen.Real
          | _ -> Error (`Msg ("unknown method: " ^ s))),
        fun ppf m -> Format.pp_print_string ppf (Reservation_gen.method_name m) )
  in
  Arg.(value & opt method_conv Reservation_gen.Expo & info [ "method" ] ~doc:"Reshaping: linear, expo, real.")

let shape_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:
          "Use a classic workflow instead of a random DAG: chain, fork-join, fft, strassen, \
           gaussian, wavefront (sized from -n where applicable).")

let dag_of ~seed ~params shape =
  let rng = Rng.create seed in
  match shape with
  | None -> Mp_dag.Dag_gen.generate rng params
  | Some s -> (
      let n = params.Mp_dag.Dag_gen.n in
      match String.lowercase_ascii s with
      | "chain" -> Workflows.chain rng ~n:(max 2 n) ()
      | "fork-join" | "forkjoin" -> Workflows.fork_join rng ~branches:(max 1 (n / 6)) ~stages:5 ()
      | "fft" -> Workflows.fft rng ~m:(max 1 (min 8 (int_of_float (Float.log2 (float_of_int (max 2 n)))))) ()
      | "strassen" -> Workflows.strassen rng ~levels:(max 1 (min 4 (n / 12))) ()
      | "gaussian" -> Workflows.gaussian rng ~n:(max 2 (int_of_float (sqrt (2. *. float_of_int n)))) ()
      | "wavefront" ->
          let side = max 2 (int_of_float (sqrt (float_of_int n))) in
          Workflows.wavefront rng ~rows:side ~cols:side ()
      | other ->
          Format.eprintf "unknown shape %S@." other;
          exit 1)

(* One-line fatal error: unreadable or malformed input files must exit
   non-zero with a message, never a raw backtrace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "mpres: %s\n" msg;
      exit 1)
    fmt

(* Derive the scheduling environment from a real SWF workload log (the
   paper's methodology: tag a fraction phi of jobs as reservations, pick
   a random scheduling instant, reshape the future schedule). *)
let env_of_swf ~seed ~phi ~method_ path =
  let jobs = try Swf.load path with Sys_error msg -> die "%s" msg in
  let rng = Rng.create seed in
  let tagged = Reservation_gen.tag rng ~phi jobs in
  if tagged = [] then die "%s: no jobs usable as reservations (phi too small or empty log?)" path;
  let at = Reservation_gen.random_instant rng tagged in
  let procs = List.fold_left (fun acc (j : Mp_workload.Job.t) -> max acc j.procs) 1 jobs in
  let sched = Reservation_gen.extract rng method_ ~procs ~at tagged in
  Env.make ~calendar:(Reservation_gen.calendar sched) ~q:(Reservation_gen.historical_average sched)

let instance_of ?dag_file ?swf_file ~seed ~params ~log ~phi ~method_ ~shape () =
  let app = { Scenario.label = "cli"; params } in
  let res = { Scenario.log; phi; method_ } in
  match Instance.synthetic ~seed ~app ~res ~n_dags:1 ~n_cals:1 with
  | [ inst ] ->
      let inst =
        match swf_file with
        | None -> inst
        | Some path -> { inst with Instance.env = env_of_swf ~seed ~phi ~method_ path }
      in
      let inst =
        match dag_file with
        | None -> (
            match shape with None -> inst | Some _ -> { inst with dag = dag_of ~seed ~params shape })
        | Some path -> (
            match Mp_dag.Dag_io.load path with
            | Ok dag -> { inst with Instance.dag = dag }
            | Error msg -> die "%s" msg)
      in
      inst
  | _ -> assert false

let dag_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "dag" ] ~docv:"FILE"
        ~doc:
          "Read the application DAG from $(docv) (line format: 'task <id> <seq> <alpha>' and \
           'edge <pred> <succ>', '#' comments) instead of generating one.")

let swf_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "swf" ] ~docv:"FILE"
        ~doc:
          "Derive the reservation calendar from this SWF workload log (tagged with --phi, \
           reshaped with --method) instead of a synthetic preset.")

(* ------------------------------------------------------------------ *)
(* gen-dag *)

let gen_dag seed params shape dot =
  let dag = dag_of ~seed ~params shape in
  if dot then print_string (Dag.to_dot dag) else Format.printf "%a@." Dag.pp dag

let gen_dag_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz dot instead of a listing.") in
  Cmd.v
    (Cmd.info "gen-dag" ~doc:"Draw a random or classic application DAG")
    Term.(const gen_dag $ seed_t $ dag_params_t $ shape_t $ dot)

(* ------------------------------------------------------------------ *)
(* gen-log *)

let gen_log seed log days =
  let jobs = Log_model.generate (Rng.create seed) ~days log in
  print_string "; SWF generated by mpres gen-log\n";
  List.iter (fun j -> print_endline (Swf.to_line j)) jobs

let gen_log_cmd =
  let days = Arg.(value & opt int 60 & info [ "days" ] ~doc:"Log span in days.") in
  Cmd.v
    (Cmd.info "gen-log" ~doc:"Draw a synthetic workload log (SWF on stdout)")
    Term.(const gen_log $ seed_t $ log_t $ days)

(* ------------------------------------------------------------------ *)
(* schedule *)

let print_schedule ?(gantt = false) ?svg_file ?(json = false) (inst : Instance.t) sched =
  Format.printf "cluster p=%d, q=%d, competing breakpoints=%d@." inst.env.p inst.env.q
    (Mp_platform.Calendar.breakpoints inst.env.calendar);
  Format.printf "%a@." Schedule.pp sched;
  let competing () =
    let until = max 1 (Schedule.turnaround sched + 3_600) in
    Mp_platform.Calendar.busy_rectangles inst.env.calendar ~from_:0 ~until
  in
  if gantt then
    print_string
      (Mp_cpa.Gantt.ascii ~procs:inst.env.p ~competing:(competing ()) sched);
  if json then print_endline (Schedule.to_json ~competing:(competing ()) sched);
  match svg_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Mp_cpa.Gantt.svg ~procs:inst.env.p ~competing:(competing ()) sched));
      Format.printf "gantt chart written to %s@." path

(* The single name→algorithm registry lives in [Algo]; the CLI only
   formats its unified listing. *)
let algo_listing = String.concat ", " Algo.all_names

let unknown_algo name =
  Format.eprintf "unknown algorithm %S.@.Known algorithms: %s@." name algo_listing;
  exit 1

let schedule seed params log phi method_ shape dag_file swf_file algo_name gantt svg_file json
    trace =
  with_trace trace @@ fun () ->
  match Algo.find algo_name with
  | None -> unknown_algo algo_name
  | Some (`Deadline _) ->
      Format.eprintf
        "%S is a deadline (RESSCHEDDL) algorithm; use 'mpres deadline --algo %s'.@." algo_name
        algo_name;
      exit 1
  | Some (`Ressched algo) -> (
      let inst = instance_of ?dag_file ?swf_file ~seed ~params ~log ~phi ~method_ ~shape () in
      match submit_one inst ~algo:algo.name ~deadline:Request.No_deadline with
      | Response.Scheduled { schedule = sched; _ } ->
          (match Schedule.validate inst.dag ~base:inst.env.calendar sched with
          | Ok () -> ()
          | Error msg ->
              Format.eprintf "internal error: invalid schedule: %s@." msg;
              exit 2);
          print_schedule ~gantt ?svg_file ~json inst sched
      | Response.Error msg -> die "%s" msg
      | resp -> die "unexpected service response %S" (Response.kind resp))

let algo_t =
  Arg.(
    value
    & opt string "BD_CPAR"
    & info [ "algo" ]
        ~doc:(Printf.sprintf "RESSCHED algorithm name. Known algorithms: %s." algo_listing))

let gantt_t = Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.")

let svg_t =
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG Gantt chart.")

let json_t = Arg.(value & flag & info [ "json" ] ~doc:"Also print the schedule as JSON.")

let schedule_cmd =
  Cmd.v
    (Cmd.info "schedule" ~doc:"Solve RESSCHED on a random instance")
    Term.(
      const schedule $ seed_t $ dag_params_t $ log_t $ phi_t $ method_t $ shape_t $ dag_file_t
      $ swf_file_t $ algo_t $ gantt_t $ svg_t $ json_t $ trace_t)

(* ------------------------------------------------------------------ *)
(* deadline *)

let deadline seed params log phi method_ shape dag_file swf_file algo_name deadline_s gantt
    svg_file trace =
  with_trace trace @@ fun () ->
  match Algo.find algo_name with
  | None -> unknown_algo algo_name
  | Some (`Ressched _) ->
      Format.eprintf
        "%S is a RESSCHED algorithm (no deadline support); use 'mpres schedule --algo %s'.@."
        algo_name algo_name;
      exit 1
  | Some (`Deadline algo) -> (
      let inst = instance_of ?dag_file ?swf_file ~seed ~params ~log ~phi ~method_ ~shape () in
      let dspec = match deadline_s with Some k -> Request.By k | None -> Request.Tightest in
      match submit_one inst ~algo:algo.name ~deadline:dspec with
      | Response.Scheduled { schedule = sched; deadline } ->
          (match (deadline_s, deadline) with
          | Some k, _ -> Format.printf "deadline %d met.@." k
          | None, Some k ->
              Format.printf "tightest deadline: %d s (%.2f h)@." k (float_of_int k /. 3600.)
          | None, None -> ());
          print_schedule ~gantt ?svg_file inst sched
      | Response.Infeasible { deadline = Some k; _ } ->
          Format.printf "deadline %d cannot be met by %s.@." k algo_name;
          exit 3
      | Response.Infeasible { deadline = None; _ } -> Format.printf "no feasible deadline found.@."
      | Response.Error msg -> die "%s" msg
      | resp -> die "unexpected service response %S" (Response.kind resp))

let deadline_cmd =
  let dl =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Deadline; omit to search for the tightest one.")
  in
  let algo =
    Arg.(
      value
      & opt string "DL_RCBD_CPAR-l"
      & info [ "algo" ]
          ~doc:(Printf.sprintf "RESSCHEDDL algorithm name. Known algorithms: %s." algo_listing))
  in
  Cmd.v
    (Cmd.info "deadline" ~doc:"Solve RESSCHEDDL on a random instance")
    Term.(
      const deadline $ seed_t $ dag_params_t $ log_t $ phi_t $ method_t $ shape_t $ dag_file_t
      $ swf_file_t $ algo $ dl $ gantt_t $ svg_t $ trace_t)

(* ------------------------------------------------------------------ *)
(* explain *)

(* Solve the instance with the decision journal on, then render the
   forensics report.  The whole run — deadline resolution, journaled
   scheduling, rendering — lives in Mp_core.Serve.explain; the journal is
   record-only: the schedule is bit-identical to what
   'mpres schedule'/'mpres deadline' emit (pinned by test_forensics.ml). *)
let explain seed params log phi method_ shape dag_file swf_file algo_name deadline_s format out
    trace =
  with_trace trace @@ fun () ->
  if Algo.find algo_name = None then unknown_algo algo_name;
  let inst = instance_of ?dag_file ?swf_file ~seed ~params ~log ~phi ~method_ ~shape () in
  let format = match format with `Text -> "text" | `Json -> "json" | `Svg -> "svg" | `Html -> "html" in
  let output =
    match
      Engine.handle (one_shot_engine inst) ~site:0
        (Request.Explain { dag = inst.dag; algo = algo_name; deadline = deadline_s; format })
    with
    | Response.Explained report -> report
    | Response.Error msg -> die "%s" msg
    | resp -> die "unexpected service response %S" (Response.kind resp)
  in
  match out with
  | None -> print_string output
  | Some path -> (
      match
        Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc output)
      with
      | () -> Format.printf "forensics report written to %s@." path
      | exception Sys_error msg -> die "%s" msg)

let explain_cmd =
  let algo =
    Arg.(
      value
      & opt string "BD_CPAR"
      & info [ "algo" ]
          ~doc:
            (Printf.sprintf
               "Algorithm name (RESSCHED or RESSCHEDDL). Known algorithms: %s." algo_listing))
  in
  let dl =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Deadline for RESSCHEDDL algorithms; omit to search for the tightest one.  Ignored \
             by RESSCHED algorithms.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("svg", `Svg); ("html", `Html) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output: $(b,text) (decision story + calendar analytics), $(b,json) (JSONL journal \
             + analytics object), $(b,svg) (Gantt overlaid on the reservation calendar), \
             $(b,html) (self-contained report embedding all of the above).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Solve an instance with the decision journal on and render the forensics report")
    Term.(
      const explain $ seed_t $ dag_params_t $ log_t $ phi_t $ method_t $ shape_t $ dag_file_t
      $ swf_file_t $ algo $ dl $ format $ out $ trace_t)

(* ------------------------------------------------------------------ *)
(* serve *)

let serve seed n sites procs queue_limit budget algos jobs dump replay json stats_every
    stats_out stats_html trace =
  if n < 0 then die "-n must be nonnegative";
  if sites < 1 then die "--sites must be at least 1";
  if procs < 1 then die "--procs must be at least 1";
  if jobs < 1 then die "--jobs must be at least 1";
  if stats_every < 1 then die "--stats-every must be at least 1";
  let algos = String.split_on_char ',' algos |> List.map String.trim |> List.filter (( <> ) "") in
  List.iter (fun a -> if Algo.find a = None then unknown_algo a) algos;
  if algos = [] then die "--algos must name at least one algorithm";
  with_trace trace @@ fun () ->
  let envelopes =
    match replay with
    | Some path ->
        let parse i line =
          if String.trim line = "" then None
          else
            match Request.envelope_of_string line with
            | Ok e -> Some e
            | Error msg -> die "%s:%d: %s" path (i + 1) msg
        in
        let lines = try In_channel.with_open_text path In_channel.input_lines with Sys_error msg -> die "%s" msg in
        List.filter_map Fun.id (List.mapi parse lines)
    | None ->
        let rng = Rng.create seed in
        Stream.generate rng ?budget ~algos ~sites ~procs ~n ()
  in
  (match dump with
  | None -> ()
  | Some path -> (
      match
        Out_channel.with_open_text path (fun oc ->
            List.iter
              (fun e ->
                Out_channel.output_string oc (Request.envelope_to_string e);
                Out_channel.output_char oc '\n')
              envelopes)
      with
      | () -> Format.eprintf "request stream dumped to %s@." path
      | exception Sys_error msg -> die "%s" msg));
  let site_specs =
    Array.init sites (fun _ ->
        { Engine.calendar = Mp_platform.Calendar.create ~procs; q = procs })
  in
  let engine = Serve.engine ~sites:site_specs () in
  let sink = Engine.Stats.sink ~every:stats_every () in
  let run () =
    let t0 = Mp_obs.now_ns () in
    let outcomes =
      Mp_prelude.Pool.with_pool ~jobs (fun pool ->
          Engine.run ~pool ?queue_limit ~measure:true ~stats:sink engine envelopes)
    in
    (outcomes, Mp_obs.now_ns () - t0)
  in
  let outcomes, wall_ns = run () in
  let n_out = List.length outcomes in
  let kinds = Hashtbl.create 16 in
  List.iter
    (fun (o : Engine.outcome) ->
      let k = Response.kind o.response in
      Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
    outcomes;
  let kind_counts =
    List.filter_map
      (fun k -> Option.map (fun c -> (k, c)) (Hashtbl.find_opt kinds k))
      Response.kinds
  in
  let samples = Engine.Stats.samples sink in
  (match stats_out with
  | None -> ()
  | Some path -> (
      match
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Mp_forensics.Telemetry.to_jsonl samples))
      with
      | () -> Format.eprintf "telemetry series written to %s@." path
      | exception Sys_error msg -> die "%s" msg));
  (match stats_html with
  | None -> ()
  | Some path -> (
      let title = Printf.sprintf "mpres serve telemetry (seed %d, n %d)" seed n in
      match
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Mp_forensics.Telemetry.html ~title samples))
      with
      | () -> Format.eprintf "telemetry dashboard written to %s@." path
      | exception Sys_error msg -> die "%s" msg));
  (* final per-site stats snapshots, aggregated via the in-band protocol *)
  let shed_queue = ref 0 and shed_budget = ref 0 and queue_peak = ref 0 in
  for site = 0 to sites - 1 do
    match Engine.handle engine ~site (Request.Stats { last = 0 }) with
    | Response.Stats s ->
        shed_queue := !shed_queue + s.shed_queue;
        shed_budget := !shed_budget + s.shed_budget;
        queue_peak := max !queue_peak s.queue_peak
    | _ -> ()
  done;
  let latency =
    Mp_obs.Summary.of_list (List.map (fun (o : Engine.outcome) -> o.wall_ns) outcomes)
  in
  let wall_s = float_of_int wall_ns /. 1e9 in
  let rps = if wall_s > 0. then float_of_int n_out /. wall_s else 0. in
  if json then begin
    let open Mp_prelude.Json in
    print_endline
      (to_string
         (Obj
            [
              ("requests", Num (float_of_int n_out));
              ("sites", Num (float_of_int sites));
              ("jobs", Num (float_of_int jobs));
              ("wall_s", Num wall_s);
              ("requests_per_s", Num rps);
              ("latency_p50_ns", Num (float_of_int latency.p50));
              ("latency_p99_ns", Num (float_of_int latency.p99));
              ("latency_p999_ns", Num (float_of_int latency.p999));
              ("latency_max_ns", Num (float_of_int latency.max));
              ("latency_mean_ns", Num latency.mean);
              ( "responses",
                Obj (List.map (fun (k, c) -> (k, Num (float_of_int c))) kind_counts) );
              ( "stats",
                Obj
                  [
                    ("shed_queue", Num (float_of_int !shed_queue));
                    ("shed_budget", Num (float_of_int !shed_budget));
                    ("queue_peak", Num (float_of_int !queue_peak));
                    ("samples", Num (float_of_int (List.length samples)));
                    ("window_s", Num (float_of_int stats_every));
                  ] );
            ]))
  end
  else begin
    Format.printf "serve: %d request(s) over %d site(s), %d proc(s) each, jobs=%d@." n_out sites
      procs jobs;
    Format.printf "  %s@."
      (String.concat "  " (List.map (fun (k, c) -> Printf.sprintf "%s %d" k c) kind_counts));
    Format.printf "  wall %.3f s, %.0f requests/s@." wall_s rps;
    Format.printf "  placement latency p50 %.1f us, p99 %.1f us, p999 %.1f us@."
      (float_of_int latency.p50 /. 1e3)
      (float_of_int latency.p99 /. 1e3)
      (float_of_int latency.p999 /. 1e3);
    Format.printf "  shed: queue-full %d, over-budget %d; queue peak %d@." !shed_queue
      !shed_budget !queue_peak;
    Format.printf "  telemetry: %d sample(s), %ds windows@." (List.length samples) stats_every
  end

let serve_cmd =
  let n = Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Number of requests to serve.") in
  let sites = Arg.(value & opt int 1 & info [ "sites" ] ~doc:"Number of independent sites.") in
  let procs = Arg.(value & opt int 64 & info [ "procs" ] ~doc:"Processors per site.") in
  let queue_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-limit" ] ~docv:"K"
          ~doc:
            "Admission control: shed a request as overloaded when $(docv) admitted requests are \
             still queued or in service at its site (default: unbounded).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Give half of the generated requests (drawn deterministically) a queue-delay budget \
             of $(docv) simulated seconds; requests over budget are shed as overloaded.")
  in
  let algos =
    Arg.(
      value
      & opt string "BD_CPAR,DL_RCBD_CPAR-l"
      & info [ "algos" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf
               "Comma-separated algorithms for generated submit/explain requests. Known \
                algorithms: %s."
               algo_listing))
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE" ~doc:"Write the request stream as JSONL envelopes to $(docv).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Serve the JSONL envelope stream in $(docv) (as written by --dump) instead of \
             generating one; decisions replay bit-identically for any --jobs.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as one JSON object.") in
  let stats_every =
    Arg.(
      value
      & opt int 60
      & info [ "stats-every" ] ~docv:"SECONDS"
          ~doc:
            "Telemetry sampling window in simulated seconds: each site emits one stats sample \
             per window (default 60). The series depends only on the request stream, so it is \
             bit-identical for any --jobs and across a --dump/--replay pair.")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:"Write the telemetry time series as JSONL (one sample per line) to $(docv).")
  in
  let stats_html =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-html" ] ~docv:"FILE"
          ~doc:
            "Render the telemetry series as a self-contained HTML/SVG dashboard (sojourn \
             heatmap, queue-depth and occupancy timelines) to $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling service over a seeded or replayed request stream (reserve, probe, \
          cancel, submit-dag, explain) and report per-kind outcomes, throughput, placement \
          latency, and a deterministic telemetry time series")
    Term.(
      const serve $ seed_t $ n $ sites $ procs $ queue_limit $ budget $ algos $ jobs_t $ dump
      $ replay $ json $ stats_every $ stats_out $ stats_html $ trace_t)

(* ------------------------------------------------------------------ *)
(* experiment *)

(* Every table and ablation [experiment] runs, in the order its help
   lists them.  Only the parallel tables and ablations start worker
   domains. *)
let tables =
  let pooled f ~jobs scale = Mp_prelude.Pool.with_pool ~jobs (fun pool -> f ~pool scale) in
  let plain f ~jobs:_ scale = f scale in
  [
    ("all", pooled Experiments.run_all);
    ("2", plain Experiments.print_table2);
    ("3", plain Experiments.print_table3);
    ("bl", pooled Experiments.print_bl_comparison);
    ("matrix", pooled Experiments.print_bl_bd_matrix);
    ("4", pooled Experiments.print_table4);
    ("5", pooled Experiments.print_table5);
    ("6", pooled Experiments.print_table6);
    ("7", pooled Experiments.print_table7);
    ("8", plain (fun _ -> Experiments.print_table8 ()));
    ("9", plain Experiments.print_table9);
    ("10", plain Experiments.print_table10);
    ("allocators", plain Experiments.print_allocator_ablation);
    ("blind", pooled Experiments.print_blind_ablation);
    ("online", plain Experiments.print_online_ablation);
    ("hetero", plain Experiments.print_hetero_ablation);
    ("icaslb", pooled Experiments.print_icaslb_ablation);
    ("impact", plain Experiments.print_reservation_impact);
    ("pareto", pooled Experiments.print_pareto_ablation);
    ("estimates", pooled Experiments.print_estimate_ablation);
  ]

let experiment scale table jobs trace =
  if jobs < 1 then begin
    Format.eprintf "--jobs must be at least 1@.";
    exit 1
  end;
  with_trace trace @@ fun () -> List.assoc table tables ~jobs (List.assoc scale Experiments.scales)

let experiment_cmd =
  (* The options parse to names: a table is a closure, and [huge] has
     [quick]'s shape. *)
  let names alts = Arg.enum (List.map (fun (name, _) -> (name, name)) alts) in
  let scale =
    Arg.(
      value
      & opt (names Experiments.scales) "quick"
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:(Printf.sprintf "Scale: %s." (doc_alts_enum Experiments.scales)))
  in
  let table =
    Arg.(
      value
      & pos 0 (names tables) "all"
      & info [] ~docv:"TABLE"
          ~doc:(Printf.sprintf "Table id or ablation name: %s." (doc_alts_enum tables)))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's tables")
    Term.(const experiment $ scale $ table $ jobs_t $ trace_t)

(* ------------------------------------------------------------------ *)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

let version = "1.1.0"

(* One line per subcommand, printed on a bare or unknown invocation (the
   full option listings stay in 'mpres <command> --help'). *)
let subcommand_summaries =
  [
    ("gen-dag", "draw a random or classic application DAG (--shape, --dot)");
    ("gen-log", "draw a synthetic workload log as SWF (--log, --phi, --days)");
    ("schedule", "solve RESSCHED on a random instance (--algo, --gantt, --svg, --trace out.json)");
    ("deadline", "solve RESSCHEDDL, fixed or tightest deadline (--algo, --deadline, --trace out.json)");
    ("explain", "decision journal + calendar analytics for one run (--format text|json|svg|html)");
    ("serve", "run the scheduling service over a seeded request stream (-n, --sites, --queue-limit, --dump/--replay)");
    ("experiment", "regenerate the paper's tables (--scale, --jobs, --trace out.json)");
  ]

let print_summary oc =
  Printf.fprintf oc "mpres %s — mixed-parallel scheduling with advance reservations\n\n" version;
  Printf.fprintf oc "usage: mpres <command> [options]\n\n";
  List.iter (fun (name, doc) -> Printf.fprintf oc "  %-11s %s\n" name doc) subcommand_summaries;
  Printf.fprintf oc
    "\nRun 'mpres <command> --help' for the full option listing, 'mpres --version' for the \
     version.\n"

let () =
  (* --verbose is handled before cmdliner so every subcommand accepts it *)
  let argv = Array.to_list Sys.argv in
  let verbose = List.mem "--verbose" argv in
  setup_logs verbose;
  let argv = Array.of_list (List.filter (fun a -> a <> "--verbose") argv) in
  (* pre-dispatch: a bare 'mpres' or an unknown subcommand gets the
     one-line-per-subcommand summary instead of cmdliner's usage error *)
  let known = List.map fst subcommand_summaries in
  (match Array.to_list argv with
  | _ :: [] ->
      print_summary stdout;
      exit 0
  | _ :: first :: _
    when (not (String.length first > 0 && first.[0] = '-'))
         && not (List.exists (String.starts_with ~prefix:first) known)
         (* cmdliner accepts unambiguous prefixes; only reject real typos *) ->
      Printf.eprintf "mpres: unknown command %S\n\n" first;
      print_summary stderr;
      exit 124
  | _ -> ());
  let info = Cmd.info "mpres" ~version ~doc:"Mixed-parallel scheduling with advance reservations" in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [ gen_dag_cmd; gen_log_cmd; schedule_cmd; deadline_cmd; explain_cmd; serve_cmd; experiment_cmd ]))

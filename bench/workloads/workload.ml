(* The four workloads.  Each runs in rounds: a round generates its inputs
   from the round's seed (main.ml times this as set-up), then runs one
   timed phase over them and checks the outputs outside the timed
   section.  A traced run replays every round's phase a second time with
   the probes on; the two phases must produce the same digest. *)

module Pool = Mp_prelude.Pool
module Rng = Mp_prelude.Rng
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Dag_gen = Mp_dag.Dag_gen
module Schedule = Mp_cpa.Schedule
module Engine = Mp_service.Engine
module Request = Mp_service.Request
module Stream = Mp_service.Stream
module Algo = Mp_core.Algo
module Deadline = Mp_core.Deadline
module Instance = Mp_sim.Instance
module Runner = Mp_sim.Runner
module Scenario = Mp_sim.Scenario

type phase = {
  ops : int;  (** operations attempted *)
  wall_ns : int;  (** the timed section *)
  latencies : int array;  (** ns at [quantum] resolution, one per op that completed *)
  quantum : int;
  dag_latencies : int array;  (** the whole-DAG operations among them *)
  failed : int;  (** ops that failed or produced a wrong output *)
  note : string option;  (** why, when [failed > 0] *)
  digest : string;
  minor_words : float;
  major_collections : int;
  contribute : Ledger.t -> unit;  (** workload-specific raw per-layer values *)
}

type t = {
  name : string;
  prepare : Pool.t -> seed:int -> trace:bool -> phase;
      (** [prepare pool ~seed] generates a round's inputs; applying the
          result to [~trace] runs and checks one timed phase *)
}

(* The timed section of a phase.  With [trace], the probes are on for
   exactly this section. *)
let timed ~trace f =
  if trace then begin
    Mp_obs.reset ();
    Mp_obs.enabled := true
  end;
  let g0 = Gc.quick_stat () in
  let t0 = Measure.now_ns () in
  let r = Fun.protect f ~finally:(fun () -> if trace then Mp_obs.enabled := false) in
  let t1 = Measure.now_ns () in
  let g1 = Gc.quick_stat () in
  (r, t1 - t0, g1.minor_words -. g0.minor_words, g1.major_collections - g0.major_collections)

(* --- per-layer probes timed from outside ------------------------------- *)

(* First and last breakpoint of a calendar, [(0, 1)] when it has none. *)
let breakpoint_span cal =
  Option.value ~default:(0, 1)
    (Calendar.fold_segments cal ~from_:min_int ~until:max_int ~init:None
       ~f:(fun acc ~start ~finish:_ ~avail:_ ->
         if start = min_int then acc
         else match acc with None -> Some (start, start) | Some (lo, _) -> Some (lo, start)))

(* 2 000 earliest-fit and 2 000 latest-fit queries against each calendar,
   drawn over the span of its breakpoints: the index cost of one fit on a
   workload's final calendars, free of the scheduler around it. *)
let fit_probe ledger ~seed cals =
  let rng = Rng.create (seed lxor 0xf17) in
  List.iter
    (fun cal ->
      let lo, hi = breakpoint_span cal in
      let span = max 1 (hi - lo) and cap = min 16 (Calendar.procs cal) in
      let queries =
        Array.init 2_000 (fun _ ->
            ( lo + Rng.int rng span,
              1 + Rng.int rng cap,
              60 + Rng.int rng 3_541,
              lo + 1 + Rng.int rng span ))
      in
      let t0 = Measure.now_ns () in
      Array.iter
        (fun (after, procs, dur, finish_by) ->
          ignore (Sys.opaque_identity (Calendar.earliest_fit cal ~after ~procs ~dur));
          ignore
            (Sys.opaque_identity (Calendar.latest_fit cal ~earliest:lo ~finish_by ~procs ~dur)))
        queries;
      Ledger.add_int ledger "index.fit_probe_ns" (Measure.now_ns () - t0);
      Ledger.add_int ledger "index.fit_probes" (2 * Array.length queries);
      Ledger.max_ ledger "index.breakpoints" (float_of_int (Calendar.breakpoints cal)))
    cals

(* --- serve-protocol and serve-dag ------------------------------------- *)

let procs = 64
let queue_limit = 32
let budget = 60

type serve_shape = { sites : int; requests : int; mix : Stream.mix; algos : string list }

(* Handlers that time each whole-DAG call from outside: count, summed
   wall time, and the wall time with at least one call in flight.  Their
   difference bounds the time calls spent waiting on the lock that
   serializes whole-DAG work. *)
let timed_handlers () =
  let m = Mutex.create () and spans = ref [] in
  let wrap kind f =
    let t0 = Measure.now_ns () in
    let r = f () in
    let t1 = Measure.now_ns () in
    Mutex.protect m (fun () -> spans := (kind, t0, t1) :: !spans);
    r
  in
  let (h : Engine.handlers) = Mp_core.Serve.handlers () in
  let handlers =
    {
      Engine.submit =
        (fun ~algo ~deadline ~q cal dag -> wrap `Submit (fun () -> h.submit ~algo ~deadline ~q cal dag));
      explain =
        (fun ~algo ~deadline ~format ~q cal dag ->
          wrap `Explain (fun () -> h.explain ~algo ~deadline ~format ~q cal dag));
    }
  in
  let contribute ledger =
    let intervals = List.sort compare (List.map (fun (_, a, b) -> (a, b)) !spans) in
    let union, _ =
      List.fold_left
        (fun (u, reach) (a, b) ->
          let a = max a reach in
          if b > a then (u + (b - a), b) else (u, reach))
        (0, min_int) intervals
    in
    Ledger.add_int ledger "serve.dag_union_ns" union;
    List.iter
      (fun (kind, a, b) ->
        let k = match kind with `Submit -> "serve.submit" | `Explain -> "serve.explain" in
        Ledger.add ledger (k ^ ".calls") 1.;
        Ledger.add_int ledger (k ^ "_ns") (b - a))
      !spans
  in
  (handlers, contribute)

(* A round's request trace: one [Stream.generate] trace of the
   reservation-protocol requests, with the whole-DAG requests dealt into
   it at seeded positions in the mix's exact numbers.  Submits cycle
   through the algorithms and the generator's deadline odds (By,
   Tightest, none, none), explains through the algorithms.  Drawn
   independently, the number of costly RESSCHEDDL requests moved a
   round's wall time by a quarter from seed to seed.  A dealt request
   arrives with the protocol request before it and has the generator's
   DAG shape, budget odds and [By] window. *)
let serve_stream shape rng =
  let m = shape.mix in
  let share w = shape.requests * w / (m.reserve + m.probe + m.cancel + m.submit + m.explain) in
  let n_submit = share m.submit and n_explain = share m.explain in
  let n_light = shape.requests - n_submit - n_explain in
  let light =
    Stream.generate rng ~mix:{ m with submit = 0; explain = 0 } ~budget ~algos:shape.algos
      ~sites:shape.sites ~procs ~n:n_light ()
  in
  let algos = Array.of_list shape.algos in
  let n_algos = Array.length algos in
  let heavy =
    Array.append
      (Array.init n_submit (fun i -> (`Submit (i / n_algos mod 4), algos.(i mod n_algos))))
      (Array.init n_explain (fun i -> (`Explain, algos.(i mod n_algos))))
  in
  Rng.shuffle rng heavy;
  let is_heavy = Array.init shape.requests (fun i -> i < Array.length heavy) in
  Rng.shuffle rng is_heavy;
  let horizon = 86_400 in
  let light = ref light and next_heavy = ref 0 and arrival = ref 0 in
  List.init shape.requests (fun id : Request.envelope ->
      if is_heavy.(id) then begin
        let kind, algo = heavy.(!next_heavy) in
        incr next_heavy;
        let dag = Dag_gen.generate rng { Dag_gen.default with n = 6 + Rng.int rng 11 } in
        let payload : Request.t =
          match kind with
          | `Submit 0 -> Submit_dag { dag; algo; deadline = By (!arrival + horizon + Rng.int rng horizon) }
          | `Submit 1 -> Submit_dag { dag; algo; deadline = Tightest }
          | `Submit _ -> Submit_dag { dag; algo; deadline = No_deadline }
          | `Explain -> Explain { dag; algo; deadline = None; format = "text" }
        in
        let site = Rng.int rng shape.sites in
        { id; site; arrival = !arrival; budget = (if Rng.bool rng then Some budget else None); payload }
      end
      else
        match !light with
        | e :: rest ->
            light := rest;
            arrival := e.arrival;
            { e with id }
        | [] -> assert false)

let serve_prepare shape pool ~seed =
  let envelopes = serve_stream shape (Rng.create seed) in
  let by_id = Array.of_list envelopes in
  fun ~trace ->
    let handlers, handler_ledger =
      if trace then timed_handlers () else (Mp_core.Serve.handlers (), ignore)
    in
    let specs =
      Array.init shape.sites (fun _ -> { Engine.calendar = Calendar.create ~procs; q = procs })
    in
    let engine = Engine.create ~handlers ~sites:specs () in
    let outcomes, wall_ns, minor_words, major_collections =
      timed ~trace (fun () -> Engine.run ~pool ~queue_limit ~measure:true engine envelopes)
    in
    let replay = Replay.replay ~sites:shape.sites by_id outcomes in
    let calendars = Replay.check_calendars replay engine ~procs in
    let served =
      List.filter (fun (o : Engine.outcome) -> o.response <> Overloaded && o.site >= 0) outcomes
    in
    let latency (o : Engine.outcome) = Measure.quantize ~quantum:1_000 o.wall_ns in
    let is_dag (o : Engine.outcome) =
      match by_id.(o.id).payload with Submit_dag _ | Explain _ -> true | _ -> false
    in
    let failed, note =
      match calendars with
      | Error msg -> (shape.requests, Some msg)
      | Ok () when replay.unexpected > 0 ->
          (replay.unexpected, Some (Printf.sprintf "%d unexpected response(s)" replay.unexpected))
      | Ok () -> (0, None)
    in
    let contribute ledger =
      handler_ledger ledger;
      Ledger.add_int ledger "service.responses" (List.length outcomes);
      Ledger.add_int ledger "service.error_expected" replay.expected_errors;
      Ledger.add_int ledger "service.error_unexpected" replay.unexpected;
      Ledger.add_int ledger "deadline.solves" replay.solves;
      Ledger.add_samples ledger "service.sim_wait" replay.waits;
      Ledger.max_ ledger "service.queue_peak" (float_of_int replay.queue_peak);
      fit_probe ledger ~seed (List.init shape.sites (fun site -> Engine.calendar engine ~site))
    in
    {
      ops = List.length outcomes;
      wall_ns;
      latencies = Array.of_list (List.map latency served);
      quantum = 1_000;
      dag_latencies = Array.of_list (List.map latency (List.filter is_dag served));
      failed;
      note;
      digest = Replay.digest outcomes;
      minor_words;
      major_collections;
      contribute;
    }

let serve_protocol =
  {
    sites = 2;
    requests = 200_000;
    mix = { reserve = 50; probe = 35; cancel = 15; submit = 0; explain = 0 };
    algos = [ "BD_CPAR" ];
  }

let serve_dag =
  {
    sites = 8;
    requests = 500;
    mix = { reserve = 40; probe = 15; cancel = 10; submit = 30; explain = 5 };
    algos = [ "BD_CPAR"; "DL_RCBD_CPAR-l" ];
  }

(* --- deadline-solve ------------------------------------------------------ *)

(* The Table 9 (task count) and Table 10 (edge density) sweep points;
   distinct labels keep the two n=50/d=0.5 defaults distinct instances. *)
let solve_points =
  List.map (fun n -> (Printf.sprintf "n=%d" n, { Dag_gen.default with n })) [ 10; 25; 50; 75; 100 ]
  @ List.map
      (fun density -> (Printf.sprintf "d=%.1f" density, { Dag_gen.default with density }))
      [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let solve_algo = Option.get (Algo.deadline_find "DL_RCBD_CPAR-l")

let reservations_string sched =
  String.concat ";"
    (List.map
       (fun (r : Reservation.t) -> Printf.sprintf "%d,%d,%d" r.start r.finish r.procs)
       (Schedule.reservations sched))

let deadline_prepare pool ~seed =
  Mp_sim.Logcache.clear ();
  let instances =
    Array.of_list
      (List.concat_map
         (fun (label, params) ->
           Instance.grid5000 ~seed ~app:{ Scenario.label; params } ~n_dags:2 ~n_cals:2)
         solve_points)
  in
  let spec = Mp_core.Speculate.create pool in
  fun ~trace ->
    let n = Array.length instances in
    let lat = Array.make n 0 in
    let results, wall_ns, minor_words, major_collections =
      timed ~trace (fun () ->
          Array.mapi
            (fun i (inst : Instance.t) ->
              let t0 = Measure.now_ns () in
              let prepared = solve_algo.prepare ~spec inst.env inst.dag in
              let r = Deadline.tightest ~spec prepared inst.env inst.dag in
              lat.(i) <- Measure.now_ns () - t0;
              r)
            instances)
    in
    let bad = ref 0 and why = ref None and b = Buffer.create 4096 in
    Array.iteri
      (fun i r ->
        let inst = instances.(i) in
        match r with
        | None ->
            incr bad;
            why := Some "a tightest-deadline search found no deadline";
            Buffer.add_string b "none\n"
        | Some (k, sched) -> (
            Printf.bprintf b "%d %s\n" k (reservations_string sched);
            match Schedule.validate inst.dag ~base:inst.env.calendar ~deadline:k sched with
            | Ok () -> ()
            | Error msg ->
                incr bad;
                why := Some msg))
      results;
    let contribute ledger =
      Ledger.add_int ledger "deadline.solves" n;
      let cals =
        Array.fold_left
          (fun acc (inst : Instance.t) ->
            let c = inst.env.calendar in
            if List.memq c acc || List.length acc >= 4 then acc else c :: acc)
          [] instances
      in
      fit_probe ledger ~seed cals
    in
    {
      ops = n;
      wall_ns;
      latencies = lat;
      quantum = 1;
      dag_latencies = lat;
      failed = !bad;
      note = !why;
      digest = Digest.to_hex (Digest.string (Buffer.contents b));
      minor_words;
      major_collections;
      contribute;
    }

(* --- sweep-campaign ------------------------------------------------------ *)

(* The Table 4 scenarios (RESSCHED on synthetic logs) and the Table 6
   columns (RESSCHEDDL on SDSC_BLUE at each φ, plus Grid'5000) of the
   quick-scale campaign that [mpres experiment] runs.  The instances keep
   the campaign's own seed: one cell in twenty carries half of the
   campaign's time, so instances drawn per workload seed moved its wall
   time by a fifth from seed to seed.  The workload seed instead shuffles
   each scenario's instances, which moves the heavy cells between the
   workers' initial ranges.  Algorithms that find no deadline are part of
   the tables (an infinite entry), not failures. *)
let sweep_scenarios () =
  let s = Mp_sim.Experiments.quick in
  let synthetic app res =
    ( app.Scenario.label ^ " x " ^ Scenario.res_label res,
      Instance.synthetic ~seed:s.seed ~app ~res ~n_dags:s.n_dags ~n_cals:s.n_cals )
  in
  let table4 =
    List.concat_map
      (fun app -> List.map (synthetic app) (Scenario.sample_res_specs s.n_res))
      (Scenario.sample_app_specs s.n_app)
  in
  let table6 =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun phi ->
            List.map
              (fun method_ ->
                synthetic app { Scenario.log = Mp_workload.Log_model.sdsc_blue; phi; method_ })
              Mp_workload.Reservation_gen.all_methods)
          Scenario.phis
        @ [
            ( app.Scenario.label ^ " x Grid5000",
              Instance.grid5000 ~seed:s.seed ~app ~n_dags:s.n_dags ~n_cals:s.n_cals );
          ])
      (Scenario.sample_app_specs (max 1 (s.n_app / 2)))
  in
  (table4, table6)

(* A scenario's instances in seeded order, with [order.(j)] the campaign
   position of the [j]-th. *)
let shuffled rng (scenario, insts) =
  let order = Array.init (List.length insts) Fun.id in
  Rng.shuffle rng order;
  let a = Array.of_list insts in
  (scenario, order, List.map (fun i -> a.(i)) (Array.to_list order))

(* Algorithms that time their own cells.  A RESSCHED cell is one [run];
   a RESSCHEDDL cell is its preparation plus every call of the prepared
   closure (the tightest search and the loose-deadline run). *)
let timed_algos () =
  let m = Mutex.create () and ressched_ns = ref [] and deadline_acc = ref [] in
  let ressched (a : Algo.ressched) =
    {
      a with
      run =
        (fun ?spec env dag ->
          let t0 = Measure.now_ns () in
          let s = a.run ?spec env dag in
          let dt = Measure.now_ns () - t0 in
          Mutex.protect m (fun () -> ressched_ns := dt :: !ressched_ns);
          s);
    }
  in
  let deadline (a : Algo.deadline) =
    {
      a with
      prepare =
        (fun ?spec env dag ->
          let t0 = Measure.now_ns () in
          let inner = a.prepare ?spec env dag in
          let acc = Atomic.make (Measure.now_ns () - t0) in
          Mutex.protect m (fun () -> deadline_acc := acc :: !deadline_acc);
          fun ~deadline ->
            let t = Measure.now_ns () in
            let r = inner ~deadline in
            ignore (Atomic.fetch_and_add acc (Measure.now_ns () - t));
            r);
    }
  in
  let cells () = Array.of_list (!ressched_ns @ List.map Atomic.get !deadline_acc) in
  (List.map ressched Algo.ressched_main, List.map deadline Algo.deadline_main, cells)

(* A result matrix in campaign order, bit for bit: the digest is the
   same for every workload seed. *)
let digest_matrix b order (r : Mp_sim.Metrics.scenario_result) =
  Printf.bprintf b "%s\n" r.scenario;
  Array.iteri
    (fun ai row ->
      let canonical = Array.make (Array.length row) 0. in
      Array.iteri (fun j v -> canonical.(order.(j)) <- v) row;
      Printf.bprintf b "%s %s\n" r.algos.(ai)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") canonical))))
    r.values

let sweep_prepare pool ~seed =
  Mp_sim.Logcache.clear ();
  let table4, table6 = sweep_scenarios () in
  let rng = Rng.create seed in
  let table4 = List.map (shuffled rng) table4 and table6 = List.map (shuffled rng) table6 in
  let cells_of algos table =
    List.fold_left (fun n (_, order, _) -> n + (Array.length order * List.length algos)) 0 table
  in
  fun ~trace ->
    let ressched_algos, deadline_algos, cells = timed_algos () in
    let (r4, r6), wall_ns, minor_words, major_collections =
      timed ~trace (fun () ->
          let r4 =
            List.map
              (fun (scenario, _, insts) -> Runner.ressched ~pool ~algos:ressched_algos ~scenario insts)
              table4
          in
          let r6 =
            List.map
              (fun (scenario, _, insts) -> Runner.deadline ~pool ~algos:deadline_algos ~scenario insts)
              table6
          in
          (r4, r6))
    in
    let b = Buffer.create 16_384 in
    List.iter2
      (fun (_, order, _) (r : Runner.ressched_result) ->
        digest_matrix b order r.tat;
        digest_matrix b order r.cpu_hours)
      table4 r4;
    List.iter2
      (fun (_, order, _) (r : Runner.deadline_result) ->
        digest_matrix b order r.tightest;
        digest_matrix b order r.loose_cpu_hours)
      table6 r6;
    let latencies = cells () in
    let contribute ledger =
      Ledger.add_int ledger "deadline.solves" (cells_of Algo.deadline_main table6);
      let first (_, _, insts) = (List.hd insts : Instance.t).env.calendar in
      fit_probe ledger ~seed (List.filteri (fun i _ -> i < 4) (List.map first (table4 @ table6)))
    in
    {
      ops = cells_of Algo.ressched_main table4 + cells_of Algo.deadline_main table6;
      wall_ns;
      latencies;
      quantum = 1;
      dag_latencies = latencies;
      failed = 0;
      note = None;
      digest = Digest.to_hex (Digest.string (Buffer.contents b));
      minor_words;
      major_collections;
      contribute;
    }

let all =
  [
    { name = "serve-protocol"; prepare = serve_prepare serve_protocol };
    { name = "serve-dag"; prepare = serve_prepare serve_dag };
    { name = "deadline-solve"; prepare = deadline_prepare };
    { name = "sweep-campaign"; prepare = sweep_prepare };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Round 0 runs the workload at the given seed itself, so golden digests
   name (workload, seed); later rounds draw fresh inputs. *)
let round_seed seed r = if r = 0 then seed else Hashtbl.hash (seed, r)

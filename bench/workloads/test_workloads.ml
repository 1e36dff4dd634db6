(* The benchmark's own checks: the error classifier on a hand-built
   stream, span self time on synthetic events, the percentile rules, and
   jobs-invariance of the serve digest. *)

module B = Bench_workloads
module Request = Mp_service.Request
module Response = Mp_service.Response
module Engine = Mp_service.Engine
module Calendar = Mp_platform.Calendar

(* --- error classifier ---------------------------------------------------- *)

let dag = Mp_dag.Dag_gen.generate (Mp_prelude.Rng.create 3) { Mp_dag.Dag_gen.default with n = 6 }

(* One site, in service order: a grant, a cancel of it, a cancel of a
   triple never held, a deadline sent to a RESSCHED algorithm, a second
   cancel of the released grant, an unknown algorithm, and a Reserve
   answered with an error. *)
let stream =
  [
    (Request.Reserve { start = 10; dur = 100; procs = 4 }, Response.Granted);
    (Request.Cancel { start = 10; finish = 110; procs = 4 }, Response.Cancelled);
    (Request.Cancel { start = 0; finish = 50; procs = 2 }, Response.Error "not held");
    ( Request.Submit_dag { dag; algo = "BD_CPAR"; deadline = Request.Tightest },
      Response.Error "no deadline support" );
    (Request.Cancel { start = 10; finish = 110; procs = 4 }, Response.Error "not held");
    ( Request.Submit_dag { dag; algo = "no-such-algo"; deadline = Request.No_deadline },
      Response.Error "unknown algorithm" );
    (Request.Reserve { start = 10; dur = 100; procs = 4 }, Response.Error "internal");
    (Request.Probe { start = 0; dur = 10; procs = 1 }, Response.Overloaded);
  ]

let envelopes =
  Array.of_list
    (List.mapi
       (fun id (payload, _) -> { Request.id; site = 0; arrival = id; budget = None; payload })
       stream)

let outcomes =
  List.mapi
    (fun id (_, response) ->
      { Engine.id; site = 0; arrival = id; started = id; response; wall_ns = 0 })
    stream

let test_classifier () =
  let r = B.Replay.replay ~sites:1 envelopes outcomes in
  Alcotest.(check int) "deliberate misses" 3 r.expected_errors;
  Alcotest.(check int) "faults" 2 r.unexpected;
  Alcotest.(check int) "shed" 1 r.shed;
  Alcotest.(check int) "admitted waits" 7 (Array.length r.waits);
  Alcotest.(check int) "nothing left held" 0 (List.length r.sites.(0).held)

(* A cancel that the engine honours although the replay never saw the
   grant is a fault too. *)
let test_classifier_phantom_cancel () =
  let held = B.Replay.Held.create () in
  Alcotest.(check bool)
    "phantom cancel" true
    (B.Replay.classify held
       (Request.Cancel { start = 1; finish = 2; procs = 1 })
       Response.Cancelled
    = B.Replay.Unexpected)

(* --- self time ------------------------------------------------------------ *)

let ev ?(domain = 0) name start_ns dur_ns =
  { Mp_obs.Snapshot.span_name = name; domain; start_ns; dur_ns; tag = None }

let self_of times name = (List.assoc name times).B.Measure.self_ns

let test_self_time () =
  (* domain 0: request [0,100) holds fit [10,30) and commit [40,45);
     commit holds an inner [40,42).  domain 1: a request overlapping
     domain 0's in time is not anyone's child. *)
  let events =
    [
      ev "request" 0 100;
      ev "fit" 10 20;
      ev "commit" 40 5;
      ev "inner" 40 2;
      ev ~domain:1 "request" 5 50;
      ev ~domain:1 "fit" 60 10;
    ]
  in
  let t = B.Measure.span_times events in
  Alcotest.(check int) "request self" ((100 - 25) + 50) (self_of t "request");
  Alcotest.(check int) "commit self excludes inner" 3 (self_of t "commit");
  Alcotest.(check int) "fit self is whole" 30 (self_of t "fit");
  Alcotest.(check int) "request total" 150 (List.assoc "request" t).total_ns;
  Alcotest.(check int) "request calls" 2 (List.assoc "request" t).calls

(* Equal intervals: the child exits first, so it stays the child. *)
let test_self_time_ties () =
  let t = B.Measure.span_times [ ev "child" 0 7; ev "parent" 0 7 ] in
  Alcotest.(check int) "parent self" 0 (self_of t "parent");
  Alcotest.(check int) "child self" 7 (self_of t "child")

(* --- percentile rules ------------------------------------------------------ *)

let test_sample_rule () =
  Alcotest.(check bool) "p99 needs 1000" false (B.Measure.enough_samples ~q:0.99 999);
  Alcotest.(check bool) "p99 at 1000" true (B.Measure.enough_samples ~q:0.99 1000);
  Alcotest.(check bool) "p50 at 20" true (B.Measure.enough_samples ~q:0.5 20);
  Alcotest.(check bool) "p50 at 19" false (B.Measure.enough_samples ~q:0.5 19)

let test_percentile () =
  let a = B.Measure.tally (Array.init 1000 (fun i -> 1000 - i)) in
  Alcotest.(check (float 1e-9)) "nearest rank" 991. (B.Measure.percentile ~quantum:1 a 0.99);
  (* ties at a coarse clock: the estimate moves inside the reading's bin *)
  let coarse = B.Measure.tally (Array.concat [ Array.make 30 2000; Array.make 10 1000 ]) in
  let p50 = B.Measure.percentile ~quantum:1000 coarse 0.5 in
  Alcotest.(check bool) "inside the 2 us bin" true (p50 >= 1500. && p50 < 2500.);
  Alcotest.(check bool)
    "higher rank, higher estimate" true
    (B.Measure.percentile ~quantum:1000 coarse 0.9 > p50);
  Alcotest.(check int) "quantize" 4000 (B.Measure.quantize ~quantum:1000 3744);
  (* rounds pool into one tally *)
  let pooled = B.Measure.tally [| 5; 1 |] in
  B.Measure.add_readings pooled [| 3; 1; 9 |];
  Alcotest.(check int) "pooled count" 5 (B.Measure.count pooled);
  Alcotest.(check (float 1e-9)) "pooled median" 3. (B.Measure.percentile ~quantum:1 pooled 0.5)

(* --- digest is jobs-invariant ---------------------------------------------- *)

let serve_digest ~jobs =
  let envelopes =
    Mp_service.Stream.generate (Mp_prelude.Rng.create 7)
      ~mix:{ reserve = 50; probe = 30; cancel = 15; submit = 4; explain = 1 }
      ~budget:60 ~algos:[ "BD_CPAR" ] ~sites:3 ~procs:64 ~n:2_000 ()
  in
  let sites =
    Array.init 3 (fun _ -> { Engine.calendar = Calendar.create ~procs:64; q = 64 })
  in
  let engine = Mp_core.Serve.engine ~sites () in
  let outcomes =
    Mp_prelude.Pool.with_pool ~jobs (fun pool ->
        Engine.run ~pool ~queue_limit:32 ~measure:true engine envelopes)
  in
  let r = B.Replay.replay ~sites:3 (Array.of_list envelopes) outcomes in
  Alcotest.(check int) "no faults" 0 r.unexpected;
  Alcotest.(check bool)
    "calendars agree with the replay" true
    (B.Replay.check_calendars r engine ~procs:64 = Ok ());
  B.Replay.digest outcomes

let test_digest_jobs_invariant () =
  Alcotest.(check string) "jobs 1 = jobs 2" (serve_digest ~jobs:1) (serve_digest ~jobs:2)

(* --- the serve-dag trace ---------------------------------------------------- *)

(* Whole-DAG requests come in the mix's exact proportions, spread evenly
   over algorithms and deadline kinds, in a well-formed trace. *)
let test_dealt_stream () =
  let shape = B.Workload.serve_dag in
  let envelopes = B.Workload.serve_stream shape (Mp_prelude.Rng.create 5) in
  Alcotest.(check int) "requests" shape.requests (List.length envelopes);
  Alcotest.(check (list int)) "ids in order"
    (List.init shape.requests Fun.id)
    (List.map (fun (e : Request.envelope) -> e.id) envelopes);
  let arrivals = List.map (fun (e : Request.envelope) -> e.arrival) envelopes in
  Alcotest.(check bool) "arrivals non-decreasing" true (List.sort compare arrivals = arrivals);
  let count p = List.length (List.filter (fun (e : Request.envelope) -> p e.payload) envelopes) in
  let submits algo k =
    count (function
      | Request.Submit_dag { algo = a; deadline; _ } ->
          a = algo
          && (match (deadline, k) with
             | By _, `By | Tightest, `Tightest | No_deadline, `None -> true
             | _ -> false)
      | _ -> false)
  in
  let explains algo = count (function Request.Explain { algo = a; _ } -> a = algo | _ -> false) in
  (* 500 requests at 40/15/10/30/5: 150 submits over 2 algorithms × (By,
     Tightest, none, none), 25 explains over 2 algorithms *)
  List.iter
    (fun algo ->
      Alcotest.(check bool) "By" true (List.mem (submits algo `By) [ 18; 19 ]);
      Alcotest.(check bool) "Tightest" true (List.mem (submits algo `Tightest) [ 18; 19 ]);
      Alcotest.(check int) "no deadline" 37 (submits algo `None);
      Alcotest.(check bool) "explain" true (List.mem (explains algo) [ 12; 13 ]))
    shape.algos;
  Alcotest.(check int) "protocol requests" 325
    (count (function Request.Reserve _ | Probe _ | Cancel _ -> true | _ -> false))

let () =
  Alcotest.run "bench_workloads"
    [
      ( "replay",
        [
          Alcotest.test_case "error classifier on a hand-built stream" `Quick test_classifier;
          Alcotest.test_case "phantom cancel is a fault" `Quick test_classifier_phantom_cancel;
        ] );
      ( "self time",
        [
          Alcotest.test_case "children contained in the span" `Quick test_self_time;
          Alcotest.test_case "equal intervals keep exit order" `Quick test_self_time_ties;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "ten samples beyond the percentile" `Quick test_sample_rule;
          Alcotest.test_case "nearest rank within a clock bin" `Quick test_percentile;
        ] );
      ( "digest",
        [ Alcotest.test_case "serve digest at 1 and 2 workers" `Quick test_digest_jobs_invariant ] );
      ( "serve-dag trace",
        [ Alcotest.test_case "whole-DAG requests in exact proportions" `Quick test_dealt_stream ] );
    ]

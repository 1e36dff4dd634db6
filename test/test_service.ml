(* Mp_service: the typed request/response protocol, the engine and its
   admission control, and the serve CLI.

   The load-bearing pins here:
   - JSON round-trips for Request/Response/envelope (the serve protocol);
   - the engine's [run] is jobs-invariant: any pool size yields identical
     outcomes and final calendars (the --jobs contract of [mpres serve]);
   - cancelling a reservation that is not held answers an [Error] naming
     the reservation. *)

module Request = Mp_service.Request
module Response = Mp_service.Response
module Engine = Mp_service.Engine
module Stream = Mp_service.Stream
module Serve = Mp_core.Serve
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Schedule = Mp_cpa.Schedule
module Dag = Mp_dag.Dag
module Dag_gen = Mp_dag.Dag_gen
module Rng = Mp_prelude.Rng

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
  at 0

let dag_of_seed ?(n = 8) seed = Dag_gen.generate (Rng.create seed) { Dag_gen.default with n }

(* ------------------------------------------------------------------ *)
(* Trial-and-error protocol: [Reserve]/[Cancel] against a single-site
   engine, as [Mp_core.Blind] drives it *)

let reserve e ~start ~dur ~procs = Engine.handle e ~site:0 (Request.Reserve { start; dur; procs })
let one_site cal = Engine.create ~sites:[| { Engine.calendar = cal; q = Calendar.procs cal } |] ()

let test_probe_grant_and_count () =
  let e = one_site (Calendar.create ~procs:4) in
  (match reserve e ~start:0 ~dur:10 ~procs:4 with
  | Response.Granted -> ()
  | r -> Alcotest.failf "expected grant, got %s" (Response.to_string r));
  Alcotest.(check int) "one request" 1 (Engine.requests e);
  Alcotest.(check int) "one granted" 1 (List.length (Engine.granted e ~site:0));
  Alcotest.(check int) "calendar updated" 0 (Calendar.available_at (Engine.calendar e ~site:0) 5)

let test_probe_reject_with_suggestion () =
  let cal =
    Calendar.reserve (Calendar.create ~procs:4) (Reservation.make ~start:0 ~finish:100 ~procs:3)
  in
  let e = one_site cal in
  (match reserve e ~start:0 ~dur:10 ~procs:2 with
  | Response.Rejected (Some 100) -> ()
  | r -> Alcotest.failf "expected rejection suggesting 100, got %s" (Response.to_string r));
  (* following the suggestion succeeds *)
  match reserve e ~start:100 ~dur:10 ~procs:2 with
  | Response.Granted -> Alcotest.(check int) "two requests" 2 (Engine.requests e)
  | r -> Alcotest.failf "suggestion was infeasible: %s" (Response.to_string r)

let test_probe_reject_invalid () =
  let e = one_site (Calendar.create ~procs:4) in
  (match reserve e ~start:(-5) ~dur:10 ~procs:1 with
  | Response.Rejected None -> ()
  | _ -> Alcotest.fail "negative start must be rejected");
  match reserve e ~start:0 ~dur:10 ~procs:5 with
  | Response.Rejected None -> ()
  | _ -> Alcotest.fail "oversize must be rejected outright"

(* the not-held message of a second cancel is pinned by "engine cancel
   not held" below *)
let test_probe_cancel () =
  let e = one_site (Calendar.create ~procs:4) in
  ignore (reserve e ~start:0 ~dur:10 ~procs:4);
  (match Engine.handle e ~site:0 (Request.Cancel { start = 0; finish = 10; procs = 4 }) with
  | Response.Cancelled -> ()
  | r -> Alcotest.failf "cancel answered %s" (Response.to_string r));
  Alcotest.(check int) "freed" 4 (Calendar.available_at (Engine.calendar e ~site:0) 5);
  Alcotest.(check int) "no longer granted" 0 (List.length (Engine.granted e ~site:0))

(* ------------------------------------------------------------------ *)
(* Engine: per-request semantics *)

let reservation_engine ?(procs = 4) () = one_site (Calendar.create ~procs)

let test_engine_probe_reads_only () =
  let e = reservation_engine () in
  (match Engine.handle e ~site:0 (Request.Probe { start = 0; dur = 10; procs = 4 }) with
  | Response.Available (Some 0) -> ()
  | r -> Alcotest.failf "probe answered %s" (Response.to_string r));
  Alcotest.(check int) "calendar untouched" 4
    (Calendar.available_at (Engine.calendar e ~site:0) 5);
  match Engine.handle e ~site:0 (Request.Probe { start = 0; dur = 10; procs = 5 }) with
  | Response.Available None -> ()
  | r -> Alcotest.failf "oversize probe answered %s" (Response.to_string r)

(* A window ending past [max_int] is out of range like a negative start:
   no grant, no suggestion, and no catch-all error string. *)
let test_engine_window_past_max_int () =
  let e = reservation_engine ~procs:1 () in
  (match Engine.handle e ~site:0 (Request.Probe { start = max_int - 2; dur = 5; procs = 1 }) with
  | Response.Available None -> ()
  | r -> Alcotest.failf "probe past max_int answered %s" (Response.to_string r));
  (match reserve e ~start:(max_int - 2) ~dur:5 ~procs:1 with
  | Response.Rejected None -> ()
  | r -> Alcotest.failf "reserve past max_int answered %s" (Response.to_string r));
  (* the only clear run left starts at [max_int - 3]: too short *)
  (match reserve e ~start:0 ~dur:(max_int - 3) ~procs:1 with
  | Response.Granted -> ()
  | r -> Alcotest.failf "reserve up to max_int - 3 answered %s" (Response.to_string r));
  (match Engine.handle e ~site:0 (Request.Probe { start = 0; dur = 5; procs = 1 }) with
  | Response.Available None -> ()
  | r -> Alcotest.failf "probe into the tail answered %s" (Response.to_string r));
  match reserve e ~start:0 ~dur:5 ~procs:1 with
  | Response.Rejected None -> ()
  | r -> Alcotest.failf "blocked reserve answered %s" (Response.to_string r)

let test_engine_cancel_not_held () =
  let e = reservation_engine () in
  (match Engine.handle e ~site:0 (Request.Reserve { start = 0; dur = 10; procs = 4 }) with
  | Response.Granted -> ()
  | r -> Alcotest.failf "reserve answered %s" (Response.to_string r));
  (match Engine.handle e ~site:0 (Request.Cancel { start = 0; finish = 10; procs = 4 }) with
  | Response.Cancelled -> ()
  | r -> Alcotest.failf "cancel answered %s" (Response.to_string r));
  match Engine.handle e ~site:0 (Request.Cancel { start = 0; finish = 10; procs = 4 }) with
  | Response.Error msg ->
      Alcotest.(check string) "names the reservation" "reservation [0, 10) x 4 is not held" msg
  | r -> Alcotest.failf "double cancel answered %s" (Response.to_string r)

let cancel e ~start ~finish ~procs =
  Engine.handle e ~site:0 (Request.Cancel { start; finish; procs })

(* The held set is a multiset: two equal grants need two cancels. *)
let test_engine_cancel_duplicate_grants () =
  let e = reservation_engine () in
  for _ = 1 to 2 do
    match reserve e ~start:0 ~dur:10 ~procs:2 with
    | Response.Granted -> ()
    | r -> Alcotest.failf "reserve answered %s" (Response.to_string r)
  done;
  Alcotest.(check int) "both held" 2 (List.length (Engine.granted e ~site:0));
  for i = 1 to 2 do
    match cancel e ~start:0 ~finish:10 ~procs:2 with
    | Response.Cancelled -> ()
    | r -> Alcotest.failf "cancel %d answered %s" i (Response.to_string r)
  done;
  Alcotest.(check int) "all freed" 4 (Calendar.available_at (Engine.calendar e ~site:0) 5);
  match cancel e ~start:0 ~finish:10 ~procs:2 with
  | Response.Error msg ->
      Alcotest.(check string) "third cancel" "reservation [0, 10) x 2 is not held" msg
  | r -> Alcotest.failf "third cancel answered %s" (Response.to_string r)

(* A cancel of a triple the site does not hold changes nothing, however
   many reservations the site holds. *)
let test_engine_cancel_not_held_is_inert () =
  let e = reservation_engine ~procs:8 () in
  for i = 0 to 199 do
    ignore (reserve e ~start:(7 * i) ~dur:(5 + (i mod 11)) ~procs:(1 + (i mod 3)))
  done;
  let held = Engine.granted e ~site:0 and cal = Engine.calendar e ~site:0 in
  Alcotest.(check bool) "many held" true (List.length held > 100);
  let segments c = Calendar.segments c ~from_:0 ~until:2_000 in
  (match cancel e ~start:1 ~finish:6 ~procs:1 with
  | Response.Error msg ->
      Alcotest.(check string) "not held" "reservation [1, 6) x 1 is not held" msg
  | r -> Alcotest.failf "cancel answered %s" (Response.to_string r));
  let sorted l = List.sort Reservation.compare_by_start l in
  Alcotest.(check bool) "granted multiset unchanged" true
    (sorted (Engine.granted e ~site:0) = sorted held);
  Alcotest.(check bool) "calendar unchanged" true
    (segments (Engine.calendar e ~site:0) = segments cal)

(* [Stats.held] counts grants minus successful cancels, duplicates
   included. *)
let test_engine_stats_held () =
  let e = reservation_engine ~procs:8 () in
  let grants = ref 0 and cancels = ref 0 in
  for i = 0 to 59 do
    let start = 10 * (i mod 20) and procs = 1 + (i mod 2) in
    (match reserve e ~start ~dur:10 ~procs with Response.Granted -> incr grants | _ -> ());
    if i mod 3 = 0 then
      match cancel e ~start:(10 * (i mod 7)) ~finish:((10 * (i mod 7)) + 10) ~procs with
      | Response.Cancelled -> incr cancels
      | _ -> ()
  done;
  let held = Engine.granted e ~site:0 in
  Alcotest.(check bool) "some grants held twice" true
    (List.length (List.sort_uniq Reservation.compare_by_start held) < List.length held);
  Alcotest.(check bool) "some cancels" true (!cancels > 0);
  match Engine.handle e ~site:0 (Request.Stats { last = 0 }) with
  | Response.Stats st ->
      Alcotest.(check int) "held = grants - cancels" (!grants - !cancels) st.Response.held;
      Alcotest.(check int) "granted agrees" st.Response.held (List.length held)
  | r -> Alcotest.failf "stats answered %s" (Response.to_string r)

let test_engine_no_handlers () =
  let e = reservation_engine () in
  match
    Engine.handle e ~site:0
      (Request.Submit_dag
         { dag = dag_of_seed 1; algo = "BD_CPAR"; deadline = Request.No_deadline })
  with
  | Response.Error msg ->
      Alcotest.(check string) "default handlers refuse DAG work"
        "no scheduler attached (wire Mp_core.Serve.handlers)" msg
  | r -> Alcotest.failf "submit answered %s" (Response.to_string r)

let test_engine_unknown_site () =
  let e = reservation_engine () in
  match Engine.handle e ~site:3 (Request.Probe { start = 0; dur = 1; procs = 1 }) with
  | Response.Error msg -> Alcotest.(check string) "unknown site" "unknown site 3" msg
  | r -> Alcotest.failf "answered %s" (Response.to_string r)

let test_engine_stats () =
  let e = reservation_engine () in
  ignore (Engine.handle e ~site:0 (Request.Reserve { start = 0; dur = 10; procs = 4 }));
  ignore (Engine.handle e ~site:0 (Request.Reserve { start = 0; dur = 10; procs = 4 }));
  ignore (Engine.handle e ~site:0 (Request.Probe { start = 50; dur = 10; procs = 1 }));
  match Engine.handle e ~site:0 (Request.Stats { last = 10 }) with
  | Response.Stats s ->
      let count k =
        match List.assoc_opt k s.Response.counts with Some v -> v | None -> 0
      in
      Alcotest.(check int) "requests includes this one" 4 s.Response.requests;
      Alcotest.(check int) "one granted" 1 (count "granted");
      Alcotest.(check int) "one rejected" 1 (count "rejected");
      Alcotest.(check int) "one available" 1 (count "available");
      Alcotest.(check int) "counts cover only prior responses" 0 (count "stats");
      Alcotest.(check int) "one reservation held" 1 s.Response.held;
      Alcotest.(check bool) "breakpoints positive" true (s.Response.breakpoints > 0);
      (* the flight recorder only fills under [run] *)
      Alcotest.(check int) "no digests outside run" 0 (List.length s.Response.recent);
      (* the snapshot reads only: a fresh probe still sees 4 free procs at 50 *)
      Alcotest.(check int) "calendar untouched" 4
        (Calendar.available_at (Engine.calendar e ~site:0) 50)
  | r -> Alcotest.failf "stats answered %s" (Response.to_string r)

(* ------------------------------------------------------------------ *)
(* Serve handlers: the registry-backed submit/explain entry points *)

let serve_engine ?(procs = 16) () =
  Serve.engine ~sites:[| { Engine.calendar = Calendar.create ~procs; q = procs } |] ()

let test_submit_ressched () =
  let e = serve_engine () in
  let dag = dag_of_seed 2 in
  match
    Engine.handle e ~site:0
      (Request.Submit_dag { dag; algo = "BD_CPAR"; deadline = Request.No_deadline })
  with
  | Response.Scheduled { schedule; deadline = None } -> (
      (* the schedule is valid against the pre-submit calendar... *)
      (match Schedule.validate dag ~base:(Calendar.create ~procs:16) schedule with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* ...and its reservations were committed to the live calendar *)
      match Schedule.reservations schedule with
      | [] -> Alcotest.fail "no reservations"
      | r :: _ ->
          Alcotest.(check bool) "committed" true
            (Calendar.available_at (Engine.calendar e ~site:0) r.Reservation.start < 16))
  | r -> Alcotest.failf "submit answered %s" (Response.to_string r)

let test_submit_ressched_refuses_deadline () =
  let e = serve_engine () in
  match
    Engine.handle e ~site:0
      (Request.Submit_dag { dag = dag_of_seed 3; algo = "BD_CPAR"; deadline = Request.By 100 })
  with
  | Response.Error msg ->
      Alcotest.(check bool) "says RESSCHED" true (contains msg "RESSCHED algorithm")
  | r -> Alcotest.failf "submit answered %s" (Response.to_string r)

let test_submit_deadline_tightest_then_by () =
  let dag = dag_of_seed 4 in
  let submit deadline =
    Engine.handle (serve_engine ()) ~site:0
      (Request.Submit_dag { dag; algo = "DL_RCBD_CPAR-l"; deadline })
  in
  match submit Request.Tightest with
  | Response.Scheduled { schedule; deadline = Some k } -> (
      Alcotest.(check bool) "tightest schedule meets its deadline" true
        (Schedule.turnaround schedule <= k);
      (match submit (Request.By k) with
      | Response.Scheduled { deadline = Some k'; _ } ->
          Alcotest.(check int) "fixed deadline echoed" k k'
      | r -> Alcotest.failf "By tightest answered %s" (Response.to_string r));
      (* far below the tightest feasible deadline the heuristic must fail *)
      match submit (Request.By (k / 8)) with
      | Response.Infeasible { deadline = Some k''; _ } ->
          Alcotest.(check int) "infeasible echoes the deadline" (k / 8) k''
      | r -> Alcotest.failf "By (tightest / 8) answered %s" (Response.to_string r))
  | r -> Alcotest.failf "Tightest answered %s" (Response.to_string r)

let test_submit_unknown_algo () =
  match
    Engine.handle (serve_engine ()) ~site:0
      (Request.Submit_dag { dag = dag_of_seed 5; algo = "nope"; deadline = Request.No_deadline })
  with
  | Response.Error msg ->
      Alcotest.(check bool) "names the algorithm" true (contains msg "unknown algorithm \"nope\"")
  | r -> Alcotest.failf "submit answered %s" (Response.to_string r)

let test_explain_formats () =
  let dag = dag_of_seed 6 in
  let explain format =
    Engine.handle (serve_engine ()) ~site:0
      (Request.Explain { dag; algo = "BD_CPAR"; deadline = None; format })
  in
  (match explain "text" with
  | Response.Explained report ->
      Alcotest.(check bool) "report has the header" true (contains report "algorithm BD_CPAR");
      Alcotest.(check bool) "report has the analytics" true (contains report "utilization")
  | r -> Alcotest.failf "explain answered %s" (Response.to_string r));
  (match explain "json" with
  | Response.Explained report ->
      Alcotest.(check bool) "jsonl has placements" true (contains report "\"event\":\"placement\"");
      Alcotest.(check bool) "jsonl has analytics" true (contains report "\"event\":\"analytics\"")
  | r -> Alcotest.failf "explain json answered %s" (Response.to_string r));
  (match explain "pdf" with
  | Response.Error msg -> Alcotest.(check bool) "unknown format" true (contains msg "pdf")
  | r -> Alcotest.failf "explain pdf answered %s" (Response.to_string r));
  (* explain never changes the calendar *)
  let e = serve_engine () in
  ignore
    (Engine.handle e ~site:0
       (Request.Explain { dag; algo = "BD_CPAR"; deadline = None; format = "text" }));
  Alcotest.(check int) "calendar untouched" 16
    (Calendar.available_at (Engine.calendar e ~site:0) 0)

(* ------------------------------------------------------------------ *)
(* Admission control (simulated time, deterministic) *)

let envelope ?budget id payload =
  { Request.id; site = 0; arrival = 0; budget; payload }

let reserve_at start = Request.Reserve { start; dur = 10; procs = 1 }

let test_queue_limit_sheds () =
  (* five cost-1 requests arrive at t=0 at one site: [queue_limit] bounds
     the admitted requests still queued or in service, so two are
     admitted and the rest shed *)
  let envs = List.init 5 (fun i -> envelope i (reserve_at (i * 100))) in
  let outcomes = Engine.run ~queue_limit:2 (reservation_engine ()) envs in
  let kinds = List.map (fun (o : Engine.outcome) -> Response.kind o.response) outcomes in
  Alcotest.(check (list string))
    "first two admitted, rest shed"
    [ "granted"; "granted"; "overloaded"; "overloaded"; "overloaded" ]
    kinds;
  (* unbounded queue: nobody is shed *)
  let outcomes = Engine.run (reservation_engine ()) envs in
  Alcotest.(check int) "no shedding without a limit" 0
    (List.length
       (List.filter (fun (o : Engine.outcome) -> o.response = Response.Overloaded) outcomes))

let test_budget_sheds () =
  (* id 0 occupies the server for 1 simulated second; id 1 tolerates no
     queue delay and is shed; id 2 tolerates plenty and is served *)
  let envs =
    [
      envelope 0 (reserve_at 0);
      envelope 1 ~budget:0 (reserve_at 100);
      envelope 2 ~budget:30 (reserve_at 200);
    ]
  in
  let outcomes = Engine.run (reservation_engine ()) envs in
  let kinds = List.map (fun (o : Engine.outcome) -> Response.kind o.response) outcomes in
  Alcotest.(check (list string)) "budget shed" [ "granted"; "overloaded"; "granted" ] kinds;
  match outcomes with
  | [ _; shed; served ] ->
      Alcotest.(check int) "shed at its arrival" 0 shed.Engine.started;
      Alcotest.(check int) "served after the queue drains" 1 served.Engine.started
  | _ -> Alcotest.fail "expected three outcomes"

let test_run_flight_recorder () =
  (* under [run] every serviced request leaves a digest, so an in-band
     Stats request sees the two requests served before it, oldest
     first *)
  let envs =
    [
      envelope 0 (reserve_at 0);
      envelope 1 (reserve_at 100);
      envelope 2 (Request.Stats { last = 64 });
    ]
  in
  match Engine.run (reservation_engine ()) envs with
  | [ _; _; { Engine.response = Response.Stats s; _ } ] ->
      Alcotest.(check (list int)) "digests oldest first" [ 0; 1 ]
        (List.map (fun d -> d.Response.d_id) s.Response.recent);
      List.iter
        (fun (d : Response.digest) ->
          Alcotest.(check string) "digest outcome" "granted" d.d_outcome)
        s.Response.recent
  | _ -> Alcotest.fail "expected three outcomes ending in a stats response"

let test_run_unknown_site () =
  let envs = [ { Request.id = 0; site = 9; arrival = 0; budget = None; payload = reserve_at 0 } ] in
  match Engine.run (reservation_engine ()) envs with
  | [ { Engine.response = Response.Error msg; _ } ] ->
      Alcotest.(check string) "unknown site" "unknown site 9" msg
  | _ -> Alcotest.fail "expected one error outcome"

(* ------------------------------------------------------------------ *)
(* Stream generator *)

let test_stream_deterministic () =
  let gen () =
    Stream.generate (Rng.create 42) ~budget:30 ~sites:3 ~procs:16 ~n:200 ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check (list string)) "same seed, same stream"
    (List.map Request.envelope_to_string a)
    (List.map Request.envelope_to_string b);
  List.iteri
    (fun i (e : Request.envelope) ->
      Alcotest.(check int) "ids are positions" i e.id;
      Alcotest.(check bool) "site in range" true (e.site >= 0 && e.site < 3))
    a;
  let arrivals = List.map (fun (e : Request.envelope) -> e.arrival) a in
  Alcotest.(check bool) "arrivals non-decreasing" true
    (List.for_all2 ( <= ) arrivals (List.tl arrivals @ [ max_int ]));
  Alcotest.check_raises "no sites" (Invalid_argument "Stream.generate: sites < 1") (fun () ->
      ignore (Stream.generate (Rng.create 1) ~sites:0 ~procs:4 ~n:1 ()))

(* ------------------------------------------------------------------ *)
(* Properties: JSON round-trips and jobs-invariance *)

let gen_dag = QCheck.Gen.(map (fun s -> dag_of_seed ~n:(6 + (s mod 5)) s) (0 -- 1000))

let gen_window = QCheck.Gen.(triple (0 -- 10_000) (1 -- 5_000) (1 -- 64))

let gen_algo = QCheck.Gen.oneofl [ "BD_CPAR"; "DL_RCBD_CPAR-l"; "cpa"; "odd \"name\"\n" ]

let gen_deadline_spec =
  QCheck.Gen.(
    oneof
      [
        return Request.No_deadline;
        map (fun k -> Request.By k) (0 -- 100_000);
        return Request.Tightest;
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun (start, dur, procs) -> Request.Reserve { start; dur; procs }) gen_window;
        map (fun (start, dur, procs) -> Request.Probe { start; dur; procs }) gen_window;
        map
          (fun (start, dur, procs) -> Request.Cancel { start; finish = start + dur; procs })
          gen_window;
        map3
          (fun dag algo deadline -> Request.Submit_dag { dag; algo; deadline })
          gen_dag gen_algo gen_deadline_spec;
        map3
          (fun dag algo (deadline, format) -> Request.Explain { dag; algo; deadline; format })
          gen_dag gen_algo
          (pair (option (0 -- 100_000)) (oneofl [ "text"; "json"; "svg"; "html" ]));
        map (fun last -> Request.Stats { last }) (0 -- 128);
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request JSON round-trips" ~count:200 (QCheck.make gen_request)
    (fun r ->
      match Request.of_string (Request.to_string r) with
      | Ok r' -> Request.to_string r' = Request.to_string r
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let gen_envelope =
  QCheck.Gen.(
    map3
      (fun id (site, arrival) (budget, payload) ->
        { Request.id; site; arrival; budget; payload })
      (0 -- 10_000)
      (pair (0 -- 10) (0 -- 100_000))
      (pair (option (0 -- 600)) gen_request))

let prop_envelope_roundtrip =
  QCheck.Test.make ~name:"envelope JSONL round-trips" ~count:200 (QCheck.make gen_envelope)
    (fun e ->
      match Request.envelope_of_string (Request.envelope_to_string e) with
      | Ok e' -> Request.envelope_to_string e' = Request.envelope_to_string e
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let gen_digest =
  QCheck.Gen.(
    map
      (fun ((id, arrival), (started, k)) ->
        {
          Response.d_id = id;
          d_arrival = arrival;
          d_started = started;
          d_outcome = List.nth Response.kinds (k mod Response.n_kinds);
        })
      (pair (pair (0 -- 10_000) (0 -- 100_000)) (pair (0 -- 100_000) (0 -- 20))))

let gen_stats =
  QCheck.Gen.(
    map3
      (fun requests counts ((sq, sb, qd), (qp, held, bp), recent) ->
        Response.Stats
          {
            requests;
            counts = List.map2 (fun k c -> (k, c)) Response.kinds counts;
            shed_queue = sq;
            shed_budget = sb;
            queue_depth = qd;
            queue_peak = qp;
            held;
            breakpoints = bp;
            recent;
          })
      (0 -- 100_000)
      (list_repeat Response.n_kinds (0 -- 1_000))
      (triple
         (triple (0 -- 100) (0 -- 100) (0 -- 100))
         (triple (0 -- 100) (0 -- 100) (0 -- 10_000))
         (list_size (0 -- 5) gen_digest)))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        return Response.Granted;
        map (fun s -> Response.Rejected s) (option (0 -- 10_000));
        map (fun s -> Response.Available s) (option (0 -- 10_000));
        map2
          (fun slots deadline ->
            let slots =
              List.map
                (fun (s, d, p) -> ({ start = s; finish = s + d; procs = p } : Schedule.slot))
                slots
            in
            Response.Scheduled
              { schedule = { Schedule.slots = Array.of_list slots }; deadline })
          (list_size (0 -- 5) gen_window)
          (option (0 -- 10_000));
        map2
          (fun algo deadline -> Response.Infeasible { algo; deadline })
          gen_algo
          (option (0 -- 10_000));
        return Response.Cancelled;
        map (fun s -> Response.Explained s) (small_string ~gen:printable);
        return Response.Overloaded;
        gen_stats;
        map (fun s -> Response.Error s) (small_string ~gen:printable);
      ])

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response JSON round-trips" ~count:200 (QCheck.make gen_response)
    (fun r ->
      match Response.of_string (Response.to_string r) with
      | Ok r' -> r' = r
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

(* The --jobs contract: one stream, identical grant/reject/shed decisions,
   final calendars and telemetry series at any pool size.  [measure:false]
   keeps wall_ns at 0, so whole outcome records must be equal; the
   telemetry is compared as rendered JSONL — the exact bytes the CI soak
   diffs across --jobs values. *)
let run_with_jobs ?mix seed jobs =
  let envelopes =
    Stream.generate (Rng.create seed) ?mix ~budget:30
      ~algos:[ "BD_CPAR"; "DL_RCBD_CPAR-l" ]
      ~sites:3 ~procs:16 ~n:80 ()
  in
  let engine =
    Serve.engine
      ~sites:(Array.init 3 (fun _ -> { Engine.calendar = Calendar.create ~procs:16; q = 16 }))
      ()
  in
  let sink = Engine.Stats.sink ~every:30 () in
  let outcomes =
    if jobs = 1 then Engine.run ~queue_limit:4 ~stats:sink engine envelopes
    else
      Mp_prelude.Pool.with_pool ~jobs (fun pool ->
          Engine.run ~pool ~queue_limit:4 ~stats:sink engine envelopes)
  in
  let rects =
    List.init 3 (fun site ->
        Calendar.busy_rectangles (Engine.calendar engine ~site) ~from_:0 ~until:400_000)
  in
  (outcomes, rects, Mp_forensics.Telemetry.to_jsonl (Engine.Stats.samples sink))

let prop_jobs_invariant =
  QCheck.Test.make ~name:"run is jobs-invariant (outcomes, calendars, telemetry)" ~count:4
    (QCheck.make QCheck.Gen.(0 -- 1_000))
    (fun seed -> run_with_jobs seed 1 = run_with_jobs seed 3)

(* Whole-DAG requests on different sites overlap at jobs > 1.  A stream
   with the serve-dag benchmark's mix must still answer identically,
   every explain report included: each report is journaled on the domain
   serving its site and sees nothing recorded on the others. *)
let test_dag_heavy_jobs_invariant () =
  let mix = { Stream.reserve = 40; probe = 15; cancel = 10; submit = 30; explain = 5 } in
  List.iter
    (fun seed ->
      let ((outcomes, _, _) as seq) = run_with_jobs ~mix seed 1 in
      let answered kind =
        List.exists (fun (o : Engine.outcome) -> Response.kind o.response = kind) outcomes
      in
      Alcotest.(check bool) "the stream schedules DAGs" true (answered "scheduled");
      Alcotest.(check bool) "the stream explains" true (answered "explained");
      Alcotest.(check bool) (Printf.sprintf "seed %d: jobs 1 = jobs 3" seed) true
        (seq = run_with_jobs ~mix seed 3))
    [ 1; 2; 3 ]

(* Replay stability: re-running the engine over the textual round-trip of
   the envelope stream (what --dump writes and --replay reads) yields the
   identical telemetry series. *)
let prop_telemetry_replay_stable =
  QCheck.Test.make ~name:"telemetry is dump/replay-stable" ~count:4
    (QCheck.make QCheck.Gen.(0 -- 1_000))
    (fun seed ->
      let envelopes =
        Stream.generate (Rng.create seed) ~budget:30 ~sites:2 ~procs:16 ~n:60 ()
      in
      let reparsed =
        List.map
          (fun e ->
            match Request.envelope_of_string (Request.envelope_to_string e) with
            | Ok e' -> e'
            | Error msg -> QCheck.Test.fail_reportf "envelope reparse failed: %s" msg)
          envelopes
      in
      let series envs =
        let engine =
          Serve.engine
            ~sites:
              (Array.init 2 (fun _ -> { Engine.calendar = Calendar.create ~procs:16; q = 16 }))
            ()
        in
        let sink = Engine.Stats.sink ~every:45 () in
        ignore (Engine.run ~queue_limit:4 ~stats:sink engine envs);
        Mp_forensics.Telemetry.to_jsonl (Engine.Stats.samples sink)
      in
      series envelopes = series reparsed)

(* ------------------------------------------------------------------ *)
(* serve CLI: soak smoke and dump/replay *)

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
   workspace root — stray serve_* files used to litter the repository. *)
let cli_tmp = lazy (Filename.temp_dir "mpres_serve" "")
let in_tmp name = Filename.concat (Lazy.force cli_tmp) name

let run_cli args out =
  Sys.command
    (Printf.sprintf "%s %s > %s 2> %s" (mpres_exe ()) args out (in_tmp "serve_err.txt"))

(* the ["responses":{...}] object of the --json report: the deterministic
   part (counts per response kind), free of wall-clock noise *)
let responses_part path =
  let s = In_channel.with_open_text path In_channel.input_all in
  let needle = "\"responses\"" in
  let n = String.length s and m = String.length needle in
  let rec find i =
    if i + m > n then Alcotest.failf "%s: no %s key" path needle
    else if String.sub s i m = needle then i
    else find (i + 1)
  in
  let from_ = find 0 in
  match String.index_from_opt s from_ '}' with
  | Some close -> String.sub s from_ (close - from_ + 1)
  | None -> Alcotest.failf "%s: unterminated responses object" path

let test_serve_cli_roundtrip () =
  let args = "--sites 2 --procs 16 --queue-limit 8 --stats-every 30 --json" in
  let trace = in_tmp "serve_trace.jsonl" in
  let stats_a = in_tmp "serve_stats_a.jsonl" and stats_b = in_tmp "serve_stats_b.jsonl" in
  let out1 = in_tmp "serve_out1.txt" and out2 = in_tmp "serve_out2.txt" in
  let code =
    run_cli
      (Printf.sprintf "serve -n 250 --seed 7 --budget 20 --dump %s --stats-out %s %s" trace
         stats_a args)
      out1
  in
  Alcotest.(check int) "serve exits 0" 0 code;
  let out = In_channel.with_open_text out1 In_channel.input_all in
  Alcotest.(check bool) "reports throughput" true (contains out "\"requests_per_s\"");
  Alcotest.(check bool) "reports latency percentiles" true (contains out "\"latency_p99_ns\"");
  Alcotest.(check bool) "reports p999" true (contains out "\"latency_p999_ns\"");
  Alcotest.(check bool) "reports the stats summary" true (contains out "\"queue_peak\"");
  let code =
    run_cli (Printf.sprintf "serve --replay %s --stats-out %s %s" trace stats_b args) out2
  in
  Alcotest.(check int) "replay exits 0" 0 code;
  Alcotest.(check string) "replay reproduces every response count" (responses_part out1)
    (responses_part out2);
  let slurp p = In_channel.with_open_text p In_channel.input_all in
  let sa = slurp stats_a in
  Alcotest.(check bool) "stats JSONL is non-empty" true (String.length sa > 0);
  Alcotest.(check bool) "stats JSONL has sojourn histograms" true (contains sa "\"sojourn\"");
  Alcotest.(check string) "replay reproduces the telemetry bytes" sa (slurp stats_b)

(* ------------------------------------------------------------------ *)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_request_roundtrip;
        prop_envelope_roundtrip;
        prop_response_roundtrip;
        prop_jobs_invariant;
        prop_telemetry_replay_stable;
      ]
  in
  Alcotest.run "mp_service"
    [
      ( "probe",
        [
          Alcotest.test_case "grant and count" `Quick test_probe_grant_and_count;
          Alcotest.test_case "reject with suggestion" `Quick test_probe_reject_with_suggestion;
          Alcotest.test_case "reject invalid" `Quick test_probe_reject_invalid;
          Alcotest.test_case "cancel" `Quick test_probe_cancel;
        ] );
      ( "engine",
        [
          Alcotest.test_case "probe reads only" `Quick test_engine_probe_reads_only;
          Alcotest.test_case "window past max_int" `Quick test_engine_window_past_max_int;
          Alcotest.test_case "cancel not held" `Quick test_engine_cancel_not_held;
          Alcotest.test_case "cancel duplicate grants" `Quick test_engine_cancel_duplicate_grants;
          Alcotest.test_case "not-held cancel is inert" `Quick test_engine_cancel_not_held_is_inert;
          Alcotest.test_case "stats held count" `Quick test_engine_stats_held;
          Alcotest.test_case "no handlers" `Quick test_engine_no_handlers;
          Alcotest.test_case "unknown site" `Quick test_engine_unknown_site;
          Alcotest.test_case "stats snapshot" `Quick test_engine_stats;
        ] );
      ( "serve-handlers",
        [
          Alcotest.test_case "submit ressched" `Quick test_submit_ressched;
          Alcotest.test_case "ressched refuses deadline" `Quick
            test_submit_ressched_refuses_deadline;
          Alcotest.test_case "deadline tightest then by" `Quick
            test_submit_deadline_tightest_then_by;
          Alcotest.test_case "unknown algorithm" `Quick test_submit_unknown_algo;
          Alcotest.test_case "explain formats" `Quick test_explain_formats;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue limit sheds" `Quick test_queue_limit_sheds;
          Alcotest.test_case "budget sheds" `Quick test_budget_sheds;
          Alcotest.test_case "flight recorder" `Quick test_run_flight_recorder;
          Alcotest.test_case "unknown site outcome" `Quick test_run_unknown_site;
          Alcotest.test_case "DAG-heavy run is jobs-invariant" `Quick
            test_dag_heavy_jobs_invariant;
        ] );
      ("stream", [ Alcotest.test_case "deterministic" `Quick test_stream_deterministic ]);
      ("properties", props);
      ("cli", [ Alcotest.test_case "serve dump/replay" `Quick test_serve_cli_roundtrip ]);
    ]

module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation

type site_spec = { calendar : Calendar.t; q : int }

type handlers = {
  submit :
    algo:string ->
    deadline:Request.deadline_spec ->
    q:int ->
    Calendar.t ->
    Mp_dag.Dag.t ->
    Response.t;
  explain :
    algo:string ->
    deadline:int option ->
    format:string ->
    q:int ->
    Calendar.t ->
    Mp_dag.Dag.t ->
    Response.t;
}

let no_scheduler _ = Response.Error "no scheduler attached (wire Mp_core.Serve.handlers)"

let no_handlers =
  {
    submit = (fun ~algo:_ ~deadline:_ ~q:_ _ dag -> no_scheduler dag);
    explain = (fun ~algo:_ ~deadline:_ ~format:_ ~q:_ _ dag -> no_scheduler dag);
  }

(* Bounded flight recorder: the last [ring_cap] outcome digests of a
   site's enveloped stream, preallocated so recording never allocates.
   [r_len] counts every push; slot [r_len mod ring_cap] is overwritten. *)
let ring_cap = 64

type ring = {
  r_id : int array;
  r_arrival : int array;
  r_started : int array;
  r_kind : int array;  (* Response.kind_index *)
  mutable r_len : int;
}

let ring_create () =
  {
    r_id = Array.make ring_cap 0;
    r_arrival = Array.make ring_cap 0;
    r_started = Array.make ring_cap 0;
    r_kind = Array.make ring_cap 0;
    r_len = 0;
  }

let ring_push r ~id ~arrival ~started ~kind =
  let i = r.r_len mod ring_cap in
  r.r_id.(i) <- id;
  r.r_arrival.(i) <- arrival;
  r.r_started.(i) <- started;
  r.r_kind.(i) <- kind;
  r.r_len <- r.r_len + 1

(* Last [k] digests, oldest first. *)
let ring_recent r k =
  let avail = min r.r_len ring_cap in
  let k = max 0 (min k avail) in
  List.init k (fun j ->
      let i = (r.r_len - k + j) mod ring_cap in
      {
        Response.d_id = r.r_id.(i);
        d_arrival = r.r_arrival.(i);
        d_started = r.r_started.(i);
        d_outcome = List.nth Response.kinds r.r_kind.(i);
      })

(* Each site owns one long-lived {!Calendar.Txn}: an independent shard
   of the availability index ({!Mp_index}), mutated only by this site's
   sequential request stream — sites share no mutable state, which is
   what lets {!run} fan them over worker domains.  Handlers and the
   {!calendar} accessor see O(1) persistent snapshots ([Txn.commit]);
   whole-DAG commits go through a trial transaction forked from the
   current snapshot so a failing schedule leaves the site untouched.

   [held] is the multiset of reservations granted to [Reserve] and not
   yet cancelled: one binding per grant, so two equal grants need two
   cancels, and a cancel of a triple the site does not hold costs one
   hash lookup however long the site has run.

   The stats fields below are the telemetry state a {!Request.Stats}
   snapshots: all simulated-time or request-count quantities, mutated
   only from the site's own sequential stream (so they stay jobs- and
   replay-invariant), and record-only — dispatch never reads them back
   into a scheduling decision. *)
type site = {
  q : int;
  mutable txn : Calendar.Txn.t;
  held : (Reservation.t, unit) Hashtbl.t;
  mutable n_requests : int;
  counts : int array;  (* responses issued, by Response.kind_index *)
  mutable shed_queue : int;
  mutable shed_budget : int;
  mutable queue_depth : int;  (* simulated in-flight depth, kept by run_site *)
  mutable queue_peak : int;
  ring : ring;
}

type t = { sites : site array; handlers : handlers }

let create ?(handlers = no_handlers) ~sites () =
  if Array.length sites = 0 then invalid_arg "Engine.create: no sites";
  let site (s : site_spec) =
    {
      q = s.q;
      txn = Calendar.Txn.start s.calendar;
      held = Hashtbl.create 64;
      n_requests = 0;
      counts = Array.make Response.n_kinds 0;
      shed_queue = 0;
      shed_budget = 0;
      queue_depth = 0;
      queue_peak = 0;
      ring = ring_create ();
    }
  in
  { sites = Array.map site sites; handlers }

(* --- observability (record-only) --------------------------------------- *)

let span_request = Mp_obs.Span.make "service.request"
let span_admission = Mp_obs.Span.make "service.admission"
let span_fit = Mp_obs.Span.make "service.fit"
let span_commit = Mp_obs.Span.make "service.commit"
let timer_handle = Mp_obs.Timer.make "service.handle"
let c_granted = Mp_obs.Counter.make "service.granted"
let c_rejected = Mp_obs.Counter.make "service.rejected"
let c_available = Mp_obs.Counter.make "service.available"
let c_scheduled = Mp_obs.Counter.make "service.scheduled"
let c_infeasible = Mp_obs.Counter.make "service.infeasible"
let c_cancelled = Mp_obs.Counter.make "service.cancelled"
let c_explained = Mp_obs.Counter.make "service.explained"
let c_overloaded = Mp_obs.Counter.make "service.overloaded"
let c_stats = Mp_obs.Counter.make "service.stats"
let c_error = Mp_obs.Counter.make "service.error"

let count_response = function
  | Response.Granted -> Mp_obs.Counter.incr c_granted
  | Response.Rejected _ -> Mp_obs.Counter.incr c_rejected
  | Response.Available _ -> Mp_obs.Counter.incr c_available
  | Response.Scheduled _ -> Mp_obs.Counter.incr c_scheduled
  | Response.Infeasible _ -> Mp_obs.Counter.incr c_infeasible
  | Response.Cancelled -> Mp_obs.Counter.incr c_cancelled
  | Response.Explained _ -> Mp_obs.Counter.incr c_explained
  | Response.Overloaded -> Mp_obs.Counter.incr c_overloaded
  | Response.Stats _ -> Mp_obs.Counter.incr c_stats
  | Response.Error _ -> Mp_obs.Counter.incr c_error

(* The index's traversal counter, read per-domain at window boundaries to
   report visits-per-window in the telemetry series.  [run_site] executes
   one site sequentially on one domain, so the domain-local delta is
   exactly this site's traffic; zero (and still deterministic) when
   tracing is off. *)
let c_index_visits = lazy (Mp_obs.Counter.find "index.node_visits")

let index_visits_now () =
  match Lazy.force c_index_visits with
  | None -> 0
  | Some c -> Mp_obs.Counter.local c

(* --- dispatch ----------------------------------------------------------- *)

(* A window no calendar can hold: a negative start, an empty or
   oversize request, or an end past [max_int]. *)
let out_of_range site ~start ~dur ~procs =
  start < 0 || dur < 1 || dur > max_int - start || procs < 1
  || procs > Calendar.Txn.procs site.txn

(* The trial-and-error semantics [Mp_core.Blind] drives: its "blind
   matches omniscient" pin depends on grant/suggestion behaviour staying
   put. *)
let reserve site ~start ~dur ~procs =
  if out_of_range site ~start ~dur ~procs then Response.Rejected None
  else begin
    let r = Reservation.make ~start ~finish:(start + dur) ~procs in
    Mp_obs.Span.enter span_commit;
    let granted = Calendar.Txn.reserve_opt site.txn r in
    Mp_obs.Span.exit span_commit;
    if granted then begin
      Hashtbl.add site.held r ();
      Response.Granted
    end
    else begin
      Mp_obs.Span.enter span_fit;
      let suggestion = Calendar.Txn.earliest_fit site.txn ~after:start ~procs ~dur in
      Mp_obs.Span.exit span_fit;
      Response.Rejected suggestion
    end
  end

let probe site ~start ~dur ~procs =
  if out_of_range site ~start ~dur ~procs then Response.Available None
  else begin
    Mp_obs.Span.enter span_fit;
    let fit = Calendar.Txn.earliest_fit site.txn ~after:start ~procs ~dur in
    Mp_obs.Span.exit span_fit;
    Response.Available fit
  end

let cancel site ~start ~finish ~procs =
  let not_held () =
    Response.Error (Printf.sprintf "reservation [%d, %d) x %d is not held" start finish procs)
  in
  if start >= finish || procs < 1 then not_held ()
  else begin
    let r = Reservation.make ~start ~finish ~procs in
    if not (Hashtbl.mem site.held r) then not_held ()
    else begin
      Hashtbl.remove site.held r;
      Mp_obs.Span.enter span_commit;
      Calendar.Txn.release site.txn r;
      Mp_obs.Span.exit span_commit;
      Response.Cancelled
    end
  end

let submit t site ~algo ~deadline dag =
  match t.handlers.submit ~algo ~deadline ~q:site.q (Calendar.Txn.commit site.txn) dag with
  | Response.Scheduled { schedule; _ } as resp ->
      (* All-or-nothing: apply the schedule to a trial transaction forked
         off the current state (both forks are O(1)); adopt it only if
         every reservation fits, so a failing schedule leaves the site's
         shard untouched. *)
      Mp_obs.Span.enter span_commit;
      let trial = Calendar.Txn.start (Calendar.Txn.commit site.txn) in
      let ok =
        List.for_all (Calendar.Txn.reserve_opt trial) (Mp_cpa.Schedule.reservations schedule)
      in
      Mp_obs.Span.exit span_commit;
      if ok then begin
        site.txn <- trial;
        resp
      end
      else Response.Error "submit_dag: schedule overcommits the site calendar"
  | resp -> resp

(* Snapshot of the site's live telemetry state — reads only; the counts
   cover every response issued before this one. *)
let stats_of site ~last =
  Response.Stats
    {
      requests = site.n_requests;
      counts = List.mapi (fun i k -> (k, site.counts.(i))) Response.kinds;
      shed_queue = site.shed_queue;
      shed_budget = site.shed_budget;
      queue_depth = site.queue_depth;
      queue_peak = site.queue_peak;
      held = Hashtbl.length site.held;
      breakpoints = Calendar.breakpoints (Calendar.Txn.commit site.txn);
      recent = ring_recent site.ring last;
    }

let dispatch t site (r : Request.t) =
  match r with
  | Reserve { start; dur; procs } -> reserve site ~start ~dur ~procs
  | Probe { start; dur; procs } -> probe site ~start ~dur ~procs
  | Cancel { start; finish; procs } -> cancel site ~start ~finish ~procs
  | Submit_dag { dag; algo; deadline } -> submit t site ~algo ~deadline dag
  | Explain { dag; algo; deadline; format } ->
      t.handlers.explain ~algo ~deadline ~format ~q:site.q (Calendar.Txn.commit site.txn) dag
  | Stats { last } -> stats_of site ~last

let handle t ~site r =
  if site < 0 || site >= Array.length t.sites then begin
    let resp = Response.Error (Printf.sprintf "unknown site %d" site) in
    count_response resp;
    resp
  end
  else begin
    let s = t.sites.(site) in
    s.n_requests <- s.n_requests + 1;
    Mp_obs.Span.enter span_request;
    let t0 = Mp_obs.Timer.start () in
    let resp = try dispatch t s r with Invalid_argument msg -> Response.Error msg in
    Mp_obs.Timer.stop timer_handle t0;
    Mp_obs.Span.exit span_request;
    s.counts.(Response.kind_index resp) <- s.counts.(Response.kind_index resp) + 1;
    count_response resp;
    resp
  end

(* --- enveloped streams with admission control --------------------------- *)

type outcome = {
  id : int;
  site : int;
  arrival : int;
  started : int;
  response : Response.t;
  wall_ns : int;
}

(* Telemetry sink: one sample-list slot per site, each written only by
   that site's worker, so collecting the series adds no shared mutable
   state and the jobs-invariance contract of {!run} is untouched. *)
module Stats = struct
  type sink = { every : int; mutable per_site : Mp_forensics.Telemetry.sample list array }

  let sink ~every () =
    if every < 1 then invalid_arg "Engine.Stats.sink: every < 1";
    { every; per_site = [||] }

  let samples s =
    let all = Array.fold_left (fun acc l -> List.rev_append l acc) [] s.per_site in
    List.sort
      (fun (a : Mp_forensics.Telemetry.sample) b ->
        match compare a.t_end b.t_end with 0 -> compare a.site b.site | c -> c)
      all
end

(* Per-window accumulators of one site's telemetry (reset at each window
   boundary); everything in here is simulated-time or a request count,
   so the emitted series is identical for any pool size. *)
type window_acc = {
  mutable w_end : int;
  w_counts : int array;  (* per-kind response deltas *)
  mutable w_shed_queue : int;
  mutable w_shed_budget : int;
  mutable w_peak : int;
  mutable w_visits0 : int;  (* index visit counter at window start *)
  mutable w_sojourn : Mp_obs.Hist.t;
}

(* One site's envelopes in ⟨arrival, id⟩ order through a simulated
   single-server FIFO queue.  Simulated time only: [free_at] is when the
   server next idles, [inflight] the finish times of admitted requests
   not yet complete at the head arrival (monotone, so draining the front
   is enough).  Decisions depend only on the envelope stream and the
   deterministic [Request.cost] model — never on wall-clock. *)
let run_site t ~queue_limit ~measure ?stats site_idx envelopes =
  let envelopes =
    List.stable_sort
      (fun (a : Request.envelope) b ->
        match compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c)
      envelopes
  in
  let site = t.sites.(site_idx) in
  let free_at = ref 0 in
  let inflight = Queue.create () in
  (* simulated in-flight depth at [time], without mutating the queue *)
  let depth_at time = Queue.fold (fun n f -> if f > time then n + 1 else n) 0 inflight in
  let every = match stats with None -> 0 | Some (s : Stats.sink) -> s.every in
  let acc =
    if every = 0 then None
    else
      Some
        {
          w_end = every;
          w_counts = Array.make Response.n_kinds 0;
          w_shed_queue = 0;
          w_shed_budget = 0;
          w_peak = 0;
          w_visits0 = index_visits_now ();
          w_sojourn = Mp_obs.Hist.create ();
        }
  in
  let samples = ref [] in
  (* Emit the window ending at [a.w_end] and open the next one.  Calendar
     state is exactly "after every request arriving before the boundary"
     because windows are flushed before serving the first later arrival. *)
  let flush_window a =
    let cal = Calendar.Txn.commit site.txn in
    let procs = Calendar.procs cal in
    let busy =
      Calendar.fold_segments cal ~from_:(a.w_end - every) ~until:a.w_end ~init:0
        ~f:(fun b ~start ~finish ~avail -> b + ((finish - start) * (procs - avail)))
    in
    let visits = index_visits_now () in
    let sample =
      {
        Mp_forensics.Telemetry.site = site_idx;
        t_end = a.w_end;
        window = every;
        served = List.mapi (fun i k -> (k, a.w_counts.(i))) Response.kinds;
        shed_queue = a.w_shed_queue;
        shed_budget = a.w_shed_budget;
        queue_depth = depth_at a.w_end;
        queue_peak = a.w_peak;
        occupancy =
          (if procs = 0 then 0. else float_of_int busy /. float_of_int (procs * every));
        breakpoints = Calendar.breakpoints cal;
        index_visits = visits - a.w_visits0;
        sojourn = a.w_sojourn;
      }
    in
    samples := sample :: !samples;
    Array.fill a.w_counts 0 (Array.length a.w_counts) 0;
    a.w_shed_queue <- 0;
    a.w_shed_budget <- 0;
    a.w_peak <- depth_at a.w_end;
    a.w_visits0 <- visits;
    a.w_sojourn <- Mp_obs.Hist.create ();
    a.w_end <- a.w_end + every
  in
  let flush_until time =
    match acc with
    | None -> ()
    | Some a ->
        while a.w_end <= time do
          flush_window a
        done
  in
  let serve (e : Request.envelope) =
    flush_until e.arrival;
    Mp_obs.Tag.set ~req:e.id ~site:site_idx;
    Mp_obs.Span.enter span_admission;
    while (not (Queue.is_empty inflight)) && Queue.peek inflight <= e.arrival do
      ignore (Queue.pop inflight)
    done;
    site.queue_depth <- Queue.length inflight;
    let shed cause =
      Mp_obs.Span.exit span_admission;
      let resp = Response.Overloaded in
      count_response resp;
      site.counts.(Response.kind_index resp) <- site.counts.(Response.kind_index resp) + 1;
      ring_push site.ring ~id:e.id ~arrival:e.arrival ~started:e.arrival
        ~kind:(Response.kind_index resp);
      (match (acc, cause) with
      | Some a, `Queue -> a.w_shed_queue <- a.w_shed_queue + 1
      | Some a, `Budget -> a.w_shed_budget <- a.w_shed_budget + 1
      | None, _ -> ());
      (match cause with
      | `Queue -> site.shed_queue <- site.shed_queue + 1
      | `Budget -> site.shed_budget <- site.shed_budget + 1);
      Mp_obs.Tag.clear ();
      { id = e.id; site = site_idx; arrival = e.arrival; started = e.arrival;
        response = resp; wall_ns = 0 }
    in
    if Queue.length inflight >= queue_limit then shed `Queue
    else begin
      let started = max e.arrival !free_at in
      let over_budget =
        match e.budget with None -> false | Some b -> started - e.arrival > b
      in
      if over_budget then shed `Budget
      else begin
        let finish = started + max 1 (Request.cost e.payload) in
        free_at := finish;
        Queue.push finish inflight;
        let depth = Queue.length inflight in
        site.queue_depth <- depth;
        if depth > site.queue_peak then site.queue_peak <- depth;
        Mp_obs.Span.exit span_admission;
        (match acc with
        | None -> ()
        | Some a ->
            if depth > a.w_peak then a.w_peak <- depth;
            Mp_obs.Hist.add a.w_sojourn (finish - e.arrival));
        let t0 = if measure then Mp_obs.now_ns () else 0 in
        let response = handle t ~site:site_idx e.payload in
        let wall_ns = if measure then Mp_obs.now_ns () - t0 else 0 in
        let response_kind = Response.kind_index response in
        ring_push site.ring ~id:e.id ~arrival:e.arrival ~started ~kind:response_kind;
        (match acc with
        | None -> ()
        | Some a -> a.w_counts.(response_kind) <- a.w_counts.(response_kind) + 1);
        Mp_obs.Tag.clear ();
        { id = e.id; site = site_idx; arrival = e.arrival; started; response;
          wall_ns = max 0 wall_ns }
      end
    end
  in
  let outcomes = List.map serve envelopes in
  (match (acc, stats) with
  | Some a, Some (s : Stats.sink) ->
      if envelopes <> [] then begin
        (* close out the tail: full windows up to the simulated horizon,
           then the partial window containing it (skipped when the horizon
           sits exactly on the last flushed boundary) *)
        let last_arrival =
          List.fold_left (fun m (e : Request.envelope) -> max m e.arrival) 0 envelopes
        in
        let horizon = max last_arrival !free_at in
        flush_until horizon;
        if horizon > a.w_end - every then flush_window a
      end;
      s.per_site.(site_idx) <- List.rev !samples
  | _ -> ());
  outcomes

let run ?pool ?(queue_limit = max_int) ?(measure = false) ?stats t envelopes =
  let n = Array.length t.sites in
  (match stats with
  | None -> ()
  | Some (s : Stats.sink) -> s.per_site <- Array.make n []);
  let per_site = Array.make n [] in
  let bad =
    List.filter_map
      (fun (e : Request.envelope) ->
        if e.site < 0 || e.site >= n then begin
          let response = Response.Error (Printf.sprintf "unknown site %d" e.site) in
          count_response response;
          Some
            { id = e.id; site = e.site; arrival = e.arrival; started = e.arrival;
              response; wall_ns = 0 }
        end
        else begin
          per_site.(e.site) <- e :: per_site.(e.site);
          None
        end)
      envelopes
  in
  let jobs = Array.to_list (Array.mapi (fun i es -> (i, List.rev es)) per_site) in
  let f (i, es) = run_site t ~queue_limit ~measure ?stats i es in
  let per_site_outcomes = match pool with None -> List.map f jobs | Some p -> Mp_prelude.Pool.map p f jobs in
  List.sort
    (fun a b -> compare a.id b.id)
    (List.concat (bad :: per_site_outcomes))

(* --- accessors ----------------------------------------------------------- *)

let check_site t site name =
  if site < 0 || site >= Array.length t.sites then
    invalid_arg (Printf.sprintf "Engine.%s: unknown site %d" name site)

let requests t = Array.fold_left (fun acc s -> acc + s.n_requests) 0 t.sites

let granted t ~site =
  check_site t site "granted";
  List.sort Reservation.compare_by_start
    (Hashtbl.fold (fun r () acc -> r :: acc) t.sites.(site).held [])

let calendar t ~site =
  check_site t site "calendar";
  Calendar.Txn.commit t.sites.(site).txn

let n_sites t = Array.length t.sites

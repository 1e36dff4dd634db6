(* The per-layer ledger of a traced run: raw totals summed over the
   traced phases of every round, turned into the per-layer metrics at
   the end.  Counts and times are normalised per operation of the
   workload, so runs that fit a different number of rounds into their
   time compare like for like. *)

type t = {
  sums : (string, float) Hashtbl.t;
  maxes : (string, float) Hashtbl.t;
  series : (string, float list) Hashtbl.t;  (** one value per round; reported as a median *)
  samples : (string, int array list) Hashtbl.t;  (** pooled over rounds *)
}

let create () =
  {
    sums = Hashtbl.create 64;
    maxes = Hashtbl.create 8;
    series = Hashtbl.create 8;
    samples = Hashtbl.create 8;
  }

let get t k = Option.value ~default:0. (Hashtbl.find_opt t.sums k)
let add t k v = Hashtbl.replace t.sums k (get t k +. v)
let add_int t k v = add t k (float_of_int v)

let max_ t k v =
  Hashtbl.replace t.maxes k (Float.max v (Option.value ~default:0. (Hashtbl.find_opt t.maxes k)))

let add_series t k v =
  Hashtbl.replace t.series k (v :: Option.value ~default:[] (Hashtbl.find_opt t.series k))

let add_samples t k a =
  Hashtbl.replace t.samples k (a :: Option.value ~default:[] (Hashtbl.find_opt t.samples k))

let pooled t k = Measure.sorted_copy (Array.concat (Option.value ~default:[] (Hashtbl.find_opt t.samples k)))

(* One traced phase's probes: counters, timer totals, and span totals
   with their self time.  Pool imbalance is max/mean busy time over the
   domains that worked in the phase (each round has a fresh pool). *)
let add_snapshot t (s : Mp_obs.Snapshot.t) =
  List.iter (fun (name, v) -> add_int t ("counter:" ^ name) v) s.counters;
  List.iter
    (fun (h : Mp_obs.Snapshot.hist) -> add_int t ("timer:" ^ h.hist_name) h.total_ns)
    s.hists;
  List.iter
    (fun (name, (st : Measure.span_time)) ->
      add_int t ("span:" ^ name) st.total_ns;
      add_int t ("self:" ^ name) st.self_ns)
    (Measure.span_times s.events);
  let busy = Hashtbl.create 4 and cells = ref [] in
  List.iter
    (fun (e : Mp_obs.Snapshot.event) ->
      match e.span_name with
      | "pool.worker" ->
          Hashtbl.replace busy e.domain
            (e.dur_ns + Option.value ~default:0 (Hashtbl.find_opt busy e.domain))
      | "runner.cell" -> cells := e.dur_ns :: !cells
      | _ -> ())
    s.events;
  add_samples t "runner.cell" (Array.of_list !cells);
  let workers = Hashtbl.length busy in
  let total = Hashtbl.fold (fun _ v acc -> acc + v) busy 0 in
  if total > 0 then begin
    let mx = Hashtbl.fold (fun _ v acc -> max acc v) busy 0 in
    add_series t "pool.imbalance" (float_of_int (mx * workers) /. float_of_int total)
  end

(* Raw keys the workloads and main.ml add next to the probes. *)
let k_ops = "ops"
let k_traced_wall = "traced_wall_ns"
let k_untraced_wall = "untraced_wall_ns"

let metrics t ~width ~cores =
  let ops = Float.max 1. (get t k_ops) in
  let per_op k = get t k /. ops in
  let us_per_op k = get t k /. 1e3 /. ops in
  let ratio a b = if b = 0. then 0. else a /. b in
  let counter name = "counter:" ^ name in
  let m name unit_ value = { Measure.name; unit_; value } in
  let count_per_op name = m (name ^ "_per_op") "count/op" (per_op (counter name)) in
  let timer_us name metric = m metric "us/op" (us_per_op ("timer:" ^ name)) in
  let median k = Measure.median (Option.value ~default:[] (Hashtbl.find_opt t.series k)) in
  let pctl_ms k q =
    match pooled t k with [||] -> 0. | a -> Measure.percentile ~quantum:1 (Measure.tally a) q /. 1e6
  in
  let busy_ns = get t (counter "pool.busy_ns") in
  let probes = get t (counter "deadline.tightest.probes") in
  let hits = get t (counter "spec.hits") and misses = get t (counter "spec.misses") in
  let wave_probes = get t (counter "spec.wave.probes") in
  let responses = get t "service.responses" in
  let cells = pooled t "runner.cell" in
  let service_share kind =
    m ("service." ^ kind ^ "_share") "share" (ratio (get t (counter ("service." ^ kind))) responses)
  in
  [
    (* pool *)
    m "host.cores" "count" (float_of_int cores);
    m "pool.width" "count" (float_of_int width);
    count_per_op "pool.batches";
    count_per_op "pool.steals";
    count_per_op "pool.tasks_stolen";
    m "pool.busy_us_per_op" "us/op" (busy_ns /. 1e3 /. ops);
    m "pool.idle_us_per_op" "us/op"
      (Float.max 0. ((float_of_int width *. get t k_traced_wall) -. busy_ns) /. 1e3 /. ops);
    m "pool.imbalance" "ratio" (let v = median "pool.imbalance" in if Float.is_nan v then 1. else v);
    (* index *)
    count_per_op "index.descents";
    count_per_op "index.node_visits";
    m "index.visits_per_descent" "count"
      (ratio (get t (counter "index.node_visits")) (get t (counter "index.descents")));
    m "index.breakpoints_max" "count"
      (Option.value ~default:0. (Hashtbl.find_opt t.maxes "index.breakpoints"));
    m "index.fit_probe_us" "us" (ratio (get t "index.fit_probe_ns") (get t "index.fit_probes") /. 1e3);
    (* calendar *)
    count_per_op "calendar.earliest_fit.calls";
    count_per_op "calendar.latest_fit.calls";
    count_per_op "calendar.reserve.calls";
    timer_us "calendar.earliest_fit" "calendar.earliest_fit_us_per_op";
    timer_us "calendar.latest_fit" "calendar.latest_fit_us_per_op";
    timer_us "calendar.reserve" "calendar.reserve_us_per_op";
    (* cpa *)
    count_per_op "cpa.allocate.calls";
    count_per_op "cpa.iterations";
    timer_us "cpa.allocate" "cpa.allocate_us_per_op";
    count_per_op "cpa.mapping.calls";
    count_per_op "cpa.mapping.placements";
    timer_us "cpa.map" "cpa.map_us_per_op";
    count_per_op "amdahl.plateau_prunes";
    (* ressched *)
    count_per_op "ressched.tasks_placed";
    count_per_op "ressched.early_cuts";
    m "ressched.schedule_us_per_op" "us/op" (us_per_op "span:ressched.schedule");
    m "ressched.place_self_us_per_op" "us/op" (us_per_op "self:ressched.place");
    (* deadline *)
    count_per_op "deadline.tasks_placed";
    count_per_op "deadline.tightest.probes";
    m "deadline.probes_per_solve" "count" (ratio probes (get t "deadline.solves"));
    m "deadline.backward_us_per_op" "us/op" (us_per_op "span:deadline.backward");
    m "deadline.place_self_us_per_op" "us/op" (us_per_op "self:deadline.place");
    (* speculate *)
    count_per_op "spec.hits";
    count_per_op "spec.misses";
    m "spec.hit_rate" "share" (ratio hits (hits +. misses));
    count_per_op "spec.waves";
    count_per_op "spec.wave.probes";
    count_per_op "spec.wave.wasted";
    m "spec.waste_rate" "share" (ratio (get t (counter "spec.wave.wasted")) wave_probes);
    m "spec.wasted_us_per_op" "us/op" (us_per_op (counter "spec.wasted_ns"));
    (* serve *)
    m "serve.submit.calls_per_op" "count/op" (per_op "serve.submit.calls");
    m "serve.explain.calls_per_op" "count/op" (per_op "serve.explain.calls");
    m "serve.submit_us_per_op" "us/op" (us_per_op "serve.submit_ns");
    m "serve.explain_us_per_op" "us/op" (us_per_op "serve.explain_ns");
    m "serve.dag_union_us_per_op" "us/op" (us_per_op "serve.dag_union_ns");
    m "serve.dag_wait_bound_us_per_op" "us/op"
      (Float.max 0.
         ((get t "serve.submit_ns" +. get t "serve.explain_ns" -. get t "serve.dag_union_ns")
         /. 1e3 /. ops));
    m "dag_latency_p50_ms" "ms" (pctl_ms "dag_latency" 0.50);
    m "dag_latency_p95_ms" "ms" (pctl_ms "dag_latency" 0.95);
    (* service *)
    service_share "granted";
    service_share "rejected";
    service_share "available";
    service_share "scheduled";
    service_share "infeasible";
    service_share "cancelled";
    service_share "explained";
    service_share "overloaded";
    service_share "error";
    m "service.error_expected_share" "share" (ratio (get t "service.error_expected") responses);
    m "service.error_unexpected_share" "share" (ratio (get t "service.error_unexpected") responses);
    m "service.request_self_us_per_op" "us/op" (us_per_op "self:service.request");
    m "service.admission_self_us_per_op" "us/op" (us_per_op "self:service.admission");
    m "service.fit_us_per_op" "us/op" (us_per_op "span:service.fit");
    m "service.commit_us_per_op" "us/op" (us_per_op "span:service.commit");
    timer_us "service.handle" "service.handle_us_per_op";
    m "service.sim_wait_p99_s" "sim_s"
      (match pooled t "service.sim_wait" with
      | [||] -> 0.
      | a -> float_of_int a.(min (Array.length a - 1) (int_of_float (0.99 *. float_of_int (Array.length a)))));
    m "service.queue_peak" "count" (Option.value ~default:0. (Hashtbl.find_opt t.maxes "service.queue_peak"));
    (* runner *)
    m "runner.cell_spans_per_op" "count/op" (float_of_int (Array.length cells) /. ops);
    m "runner.cell_p50_ms" "ms" (pctl_ms "runner.cell" 0.50);
    m "runner.cell_max_ms" "ms"
      (match cells with [||] -> 0. | a -> float_of_int a.(Array.length a - 1) /. 1e6);
    (* setup *)
    m "setup.inputs_s" "s" (median "setup.inputs_s");
    m "setup.pool_start_s" "s" (median "setup.pool_start_s");
    (* gc *)
    m "gc.minor_words_per_op" "words/op" (per_op "gc.minor_words");
    m "gc.major_collections_per_op" "count/op" (per_op "gc.major_collections");
    (* obs *)
    m "obs.trace_overhead" "ratio" (ratio (get t k_traced_wall) (get t k_untraced_wall));
    m "obs.events.dropped" "count" (get t (counter "obs.events.dropped"));
    m "latency.samples" "count" (get t "latency.samples");
  ]

(** Service telemetry time series: rendering and summarisation.

    The scheduling-service engine ([Mp_service.Engine]) samples each
    site's live state every N {e simulated} seconds into {!sample}
    values.  This module turns that series into artifacts: a JSONL dump
    ({!to_jsonl} — one object per line, deterministic bytes), headline
    statistics ({!headline} — what the bench reports as metrics), and a
    self-contained HTML/SVG dashboard ({!html}).

    Everything here is derived from {e simulated} time (arrival, service
    start, sojourn = finish − arrival), so the series is bit-identical
    for any worker-pool size and across a [--dump]/[--replay] pair —
    wall-clock never enters a sample.  The engine-side contract is
    documented under "Scheduling service" in DESIGN.md; the tests pinning
    jobs-invariance live in [test_service.ml]. *)

(** One site's accumulators over one sampling window
    [\[t_end - window, t_end)].  Counts are per-window deltas; depths and
    occupancy are window-end state. *)
type sample = {
  site : int;
  t_end : int;  (** window end, simulated seconds *)
  window : int;  (** window length (the [--stats-every] value) *)
  served : (string * int) list;
      (** responses issued this window, by response kind
          ([Mp_service.Response.kinds] order, zeros kept) *)
  shed_queue : int;  (** shed this window: bounded queue full *)
  shed_budget : int;  (** shed this window: queue-delay budget exceeded *)
  queue_depth : int;  (** simulated in-flight depth at window end *)
  queue_peak : int;  (** max depth observed during the window *)
  occupancy : float;
      (** busy processor-seconds of the site calendar over the window
          divided by [procs * window], in [0, 1] *)
  breakpoints : int;  (** availability breakpoints at window end *)
  index_visits : int;
      (** per-domain delta of the ["index.node_visits"] counter across
          the window — [0] when tracing is off *)
  sojourn : Mp_obs.Hist.t;
      (** sojourn times (finish − arrival, simulated seconds) of the
          requests admitted this window *)
}

val to_jsonl : sample list -> string
(** One line per sample, in the given order (the engine emits them
    sorted by ⟨t_end, site⟩). *)

(** Series-level summary — the numbers the bench "Service" section
    reports as metrics. *)
type headline = {
  h_samples : int;
  h_served : int;  (** responses summed over all windows *)
  h_shed : int;  (** queue + budget sheds summed *)
  h_shed_rate : float;  (** shed / (served + shed), 0 when idle *)
  h_max_queue_depth : int;
  h_p999_sojourn : float;  (** p999 of the merged sojourn histograms, seconds *)
  h_mean_occupancy : float;  (** mean of per-window occupancy samples *)
  h_peak_occupancy : float;
}

val headline : sample list -> headline

val html : title:string -> sample list -> string
(** Self-contained dashboard: headline block, sojourn heatmap (log2
    buckets × windows), per-site queue-depth and occupancy timelines.
    No external assets. *)

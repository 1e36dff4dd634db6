(** Drivers reproducing every table of the paper's evaluation.

    {!tables} is the one list of tables: the [mpres experiment] command,
    the benchmark harness's sections and the golden-file test all read
    it.  The structured results the tests assert the paper's qualitative
    findings on are exported beside it.

    Scales: the paper uses 1 440 scenarios × 1 000 instances, far beyond
    what a quick benchmark run should do; {!quick} and {!standard} are
    reduced but shape-preserving, {!paper} is the full design.

    Every parallel table and ablation fans its work over the caller's
    [~pool] (a {!Mp_prelude.Pool}); the others run on the calling
    domain.  Parallel results are bit-identical to a pool of one worker:
    the work-stealing pool may run an item on any worker, but results
    merge in item order — see "Parallel experiment engine" in DESIGN.md.
    Per-scenario wall-clock is reported on the [mpres.experiments] log
    source at info level. *)

type scale = {
  seed : int;
  n_app : int;  (** application specifications drawn from the 40 of Table 1 *)
  n_res : int;  (** reservation specifications drawn from the 36 *)
  n_dags : int;  (** DAG instances per scenario *)
  n_cals : int;  (** reservation-schedule instances per scenario *)
}

val tiny : scale
(** Smallest shape-preserving scale; used by the golden-file regression
    test and the CI bench smoke job. *)

val quick : scale
val standard : scale
val paper : scale

val huge : scale
(** Same simulation shape as {!quick}; selecting it grows the parts of
    the bench harness that scale independently of the table scenario
    counts — the "Calendar index" ladder climbs to 10⁵–10⁶ reservations
    per calendar.  See CLAUDE.md ([MPRES_SCALE=huge]). *)

val scales : (string * scale) list
(** Every scale by name, smallest first: ["tiny"], ["quick"],
    ["standard"], ["paper"], ["huge"]. *)

(** {1 The tables} *)

type table = {
  id : string;  (** the [mpres experiment] argument: ["2"], ["bl"], ["pareto"], ... *)
  name : string;
      (** the benchmark harness's section title, the key [bench/compare.exe]
          matches sections on *)
  text : pool:Mp_prelude.Pool.t -> scale -> string;
      (** the rendered table; the sequential ones ignore [pool] *)
}

val tables : table list
(** Every table of the paper (Tables 2-10 and the Section 4.3.1
    comparison) plus the extended BL x BD matrix and the ablations, in
    [mpres experiment]'s order.  Tables 9 and 10 time each
    ⟨algorithm, sweep point⟩ cell on one shared Grid'5000-style
    environment: one run with the probes as they are, then repeats with
    the probes off for at least 3 runs and 40 ms of CPU time; a cell
    reads the repeats' mean CPU milliseconds. *)

(** {1 Table 2 — workload logs} *)

type log_row = {
  log_name : string;
  cpus : int;
  target_util : float;
  realized_util : float;
  n_jobs : int;
}

val table2 : scale -> log_row list

(** {1 Table 4 — RESSCHED} *)

val table4 : pool:Mp_prelude.Pool.t -> scale -> Metrics.row list * Metrics.row list
(** Synthetic reservation schedules; (turn-around rows, CPU-hour rows). *)

(** {1 Table 9 — algorithm execution times} *)

type timing_row = { algo_name : string; times_ms : (string * float) list }

val table9 : scale -> timing_row list
(** Mean CPU milliseconds per run of each Table 8 algorithm as the task
    count [n] sweeps 10..100. *)

(** {1 Ablations (beyond the paper's tables)} *)

type allocator_row = {
  allocator : string;
  avg_makespan_h : float;  (** mean makespan, hours, dedicated cluster *)
  avg_work_h : float;  (** mean CPU-hours *)
}

val allocator_ablation : scale -> allocator_row list
(** Compare the mixed-parallel allocators on dedicated clusters (no
    reservations): CPA with the classic stopping criterion, CPA with the
    improved criterion (the paper's choice), MCPA, and iCASLB.  Justifies
    the improved-criterion substitution documented in DESIGN.md. *)

type online_row = {
  arrivals_per_step : float;
  avg_turnaround_penalty : float;  (** % over scheduling with a frozen calendar *)
  avg_competitors_granted : float;
}

val online_ablation : scale -> online_row list
(** Impact of competing reservations arriving {e while} the application is
    being scheduled ([Mp_core.Online], removing the paper's frozen-calendar
    assumption): turn-around penalty as the mid-scheduling arrival rate
    grows. *)

type hetero_row = {
  hbd : string;
  avg_turnaround_h : float;
  avg_cpu_hours : float;
  fast_site_share : float;  (** fraction of tasks placed on the fastest site *)
}

val hetero_ablation : scale -> hetero_row list
(** Heterogeneous multi-cluster extension ([Mp_core.Hressched]): HBD_ALL
    versus HBD_CPAR on random three-site grids with competing
    reservations. *)

type estimate_row = {
  factor : float;  (** execution-time over-estimation factor *)
  rows : (string * float * float) list;
      (** per algorithm: (name, avg turn-around hours, avg CPU-hours) —
          reservations are paid for their full (over-estimated) length *)
}

val estimate_ablation : pool:Mp_prelude.Pool.t -> scale -> estimate_row list
(** Impact of pessimistic execution-time estimates (Section 3.1 leaves
    this out of scope but predicts that all algorithms degrade similarly):
    task reservations are made for [factor] × the true execution time, so
    both turn-around time and the CPU-hours billed grow with the
    pessimism. *)

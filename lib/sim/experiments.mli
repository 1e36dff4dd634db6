(** Drivers reproducing every table of the paper's evaluation.

    Each function returns structured results (so tests can assert the
    paper's qualitative findings) and has a [print_*] companion used by
    the benchmark harness and the CLI.

    Scales: the paper uses 1 440 scenarios × 1 000 instances, far beyond
    what a quick benchmark run should do; {!quick} and {!standard} are
    reduced but shape-preserving, {!paper} is the full design.

    Every parallel table and ablation fans its work over the caller's
    [~pool] (a {!Mp_prelude.Pool}, which {!run_all} reuses across
    tables); the others run on the calling domain.  Parallel
    results are bit-identical to a pool of one worker: the work-stealing
    pool may run an item on any worker, but results merge in item order
    — see "Parallel experiment engine" in DESIGN.md.  Per-scenario
    wall-clock is reported on the [mpres.experiments] log source at info
    level. *)

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

val scale_of_string : string -> scale option
(** ["tiny"], ["quick"], ["standard"], ["paper"], ["huge"]. *)

(** {1 Table 2 — workload logs} *)

type log_row = {
  log_name : string;
  cpus : int;
  target_util : float;
  realized_util : float;
  n_jobs : int;
}

val table2 : scale -> log_row list
val print_table2 : scale -> unit

(** {1 Table 3 — log statistics and method correlations} *)

type table3 = {
  stats : (string * Mp_prelude.Stats.summary * Mp_prelude.Stats.summary) list;
      (** per log: (name, windowed mean-exec-time summary [hours],
          windowed mean-wait summary [hours]) *)
  correlations : (string * float) list;
      (** per generation method: average correlation of its reservation
          series with Grid'5000-style series *)
}

val table3 : scale -> table3
val print_table3 : scale -> unit

(** {1 Section 4.3.1 — bottom-level method comparison} *)

type bl_comparison = {
  improvement_min : float;  (** worst relative improvement over BL_1, % *)
  improvement_max : float;  (** best relative improvement over BL_1, % *)
  best_shares : (string * float) list;
      (** fraction of (scenario × bounding) cases each BL method wins *)
}

val bl_comparison : pool:Mp_prelude.Pool.t -> scale -> bl_comparison
val print_bl_comparison : pool:Mp_prelude.Pool.t -> scale -> unit

(** {1 Tables 4 and 5 — RESSCHED} *)

val table4 : pool:Mp_prelude.Pool.t -> scale -> Metrics.row list * Metrics.row list
(** Synthetic reservation schedules; (turn-around rows, CPU-hour rows). *)

val print_table4 : pool:Mp_prelude.Pool.t -> scale -> unit

val table5 : pool:Mp_prelude.Pool.t -> scale -> Metrics.row list * Metrics.row list
(** Grid'5000-style reservation schedules. *)

val print_table5 : pool:Mp_prelude.Pool.t -> scale -> unit

val bl_bd_matrix : pool:Mp_prelude.Pool.t -> scale -> Metrics.row list * Metrics.row list
(** Extended experiment: every one of the 16 BL_x_BD_y combinations on
    synthetic reservation schedules (the paper reports only the BL and BD
    marginals). *)

val print_bl_bd_matrix : pool:Mp_prelude.Pool.t -> scale -> unit

(** {1 Tables 6 and 7 — RESSCHEDDL} *)

val table6 : pool:Mp_prelude.Pool.t -> scale -> (string * Metrics.row list * Metrics.row list) list
(** One triple per column group: ["phi=0.1"], ["phi=0.2"], ["phi=0.5"]
    (SDSC_BLUE log, as in the paper) and ["Grid5000"]; each carries
    (tightest-deadline rows, loose-deadline CPU-hour rows). *)

val print_table6 : pool:Mp_prelude.Pool.t -> scale -> unit

val table7 : pool:Mp_prelude.Pool.t -> scale -> Metrics.row list * Metrics.row list
(** Hybrid-λ algorithms on Grid'5000-style schedules. *)

val print_table7 : pool:Mp_prelude.Pool.t -> scale -> unit

val standard_tables : pool:Mp_prelude.Pool.t -> scale -> string
(** The exact text of the [standard_tables.out] artifact at the given
    scale: Tables 4-7 and the Section 4.3.1 comparison separated by
    [===T5===]/[===T6===]/[===T7===]/[===BL===] markers.  The test suite
    pins the {!tiny}-scale rendering against
    [test/standard_tables_tiny.expected]. *)

(** {1 Table 8 — complexities (static)} *)

val print_table8 : unit -> unit

(** {1 Tables 9 and 10 — algorithm execution times} *)

type timing_row = { algo_name : string; times_ms : (string * float) list }

val table9 : scale -> timing_row list
(** Average scheduling time (milliseconds) per algorithm as the task count
    [n] sweeps 10..100. *)

val print_table9 : scale -> unit

val table10 : scale -> timing_row list
(** Same as the edge density [d] sweeps 0.1..0.9. *)

val print_table10 : scale -> unit

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

val print_allocator_ablation : scale -> unit

type blind_row = {
  budget : int;
  avg_turnaround_penalty : float;  (** % over the omniscient BD_CPAR *)
  avg_probes_per_task : float;
}

val blind_ablation : pool:Mp_prelude.Pool.t -> scale -> blind_row list
(** Cost of scheduling {e without} calendar visibility (Section 3.2.2's
    trial-and-error variant, [Mp_core.Blind]): turn-around penalty versus
    the omniscient scheduler as the per-task probe budget grows. *)

val print_blind_ablation : pool:Mp_prelude.Pool.t -> scale -> unit

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

val print_online_ablation : scale -> unit

type icaslb_row = { bound_name : string; avg_turnaround_h : float; avg_cpu_hours : float }

val icaslb_ablation : pool:Mp_prelude.Pool.t -> scale -> icaslb_row list
(** The paper's first future-work direction: use iCASLB instead of CPA to
    compute the allocation bounds ([Bound.BD_ICASLB]/[BD_ICASLBR]),
    compared against BD_CPA/BD_CPAR on reserved clusters. *)

val print_icaslb_ablation : pool:Mp_prelude.Pool.t -> scale -> unit

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

val print_hetero_ablation : scale -> unit

type impact_row = {
  injected : string;  (** ["none"] or the bound method used for the application *)
  avg_wait_min : float;  (** batch jobs' mean queue wait, minutes *)
  app_cpu_hours : float;
}

val reservation_impact : scale -> impact_row list
(** The reservation-impact question the paper's motivation raises (and
    Margo et al. studied): injecting the application's advance
    reservations into a batch stream, how much longer do batch jobs wait —
    and how much worse is a greedy (BD_ALL) application schedule than a
    frugal (BD_CPAR) one? *)

val print_reservation_impact : scale -> unit

type pareto_row = { slack : float; rows : (string * float) list }

val pareto_ablation : pool:Mp_prelude.Pool.t -> scale -> pareto_row list
(** CPU-hours of the main deadline algorithms as the deadline loosens from
    the tightest achievable (slack 1.0) to 5x — the full curve behind the
    paper's single loose-deadline column. *)

val print_pareto_ablation : pool:Mp_prelude.Pool.t -> scale -> unit

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

val print_estimate_ablation : pool:Mp_prelude.Pool.t -> scale -> unit

val run_all : pool:Mp_prelude.Pool.t -> scale -> unit
(** Print every table at the given scale, plus the ablations; the
    parallel ones share [pool]. *)

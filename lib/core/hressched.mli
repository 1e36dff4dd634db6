(** RESSCHED on a heterogeneous multi-cluster platform — the paper's third
    future-work direction (Section 7), built by combining its
    reservation-aware scheduling with the HCPA idea of N'Takpé, Suter &
    Casanova (ISPDC'07): compute CPA allocations on a {e reference
    cluster} aggregating the grid's speed-weighted capacity, then
    translate each task's reference allocation to the candidate site's
    speed when placing it.

    Placement mirrors the homogeneous BD_* family: tasks in decreasing
    bottom-level order; for each task, every site and every
    distinct-duration processor count up to the site's (translated) bound
    is considered, and the ⟨site, processors, start⟩ triple with the
    earliest completion wins (ties: fewer processors, then lower site
    index).  Inter-site data transfers are, like all communication in the
    paper, considered absorbed in the tasks' sequential fractions.

    As in the homogeneous case, bounding allocations by CPA values
    ([HBD_CPAR], computed against historically {e available} speed-weighted
    capacity) preserves task parallelism and dominates unbounded
    allocation ([HBD_ALL]); the [hetero] ablation in the benchmark harness
    quantifies it. *)

type slot = { site : int; start : int; finish : int; procs : int }

type t = { slots : slot array }

val turnaround : t -> int
val cpu_hours : t -> float
(** Σ processors × duration, in hours (site-local processor-hours). *)

type bound_method = HBD_ALL | HBD_CPAR

val bound_name : bound_method -> string

val schedule : ?bd:bound_method -> Mp_platform.Grid.t -> Mp_dag.Dag.t -> t
(** [schedule grid dag] computes the multi-site schedule.  Default
    [bd = HBD_CPAR], whose reference capacity is each site's average
    availability over the next 7 days, weighted by its speed. *)

val deadline : ?bd:bound_method -> Mp_platform.Grid.t -> Mp_dag.Dag.t -> deadline:int -> t option
(** Multi-site RESSCHEDDL, aggressive flavour: tasks are placed backward
    from the deadline in increasing bottom-level order; each task takes
    the ⟨site, processors, start⟩ triple with the {e latest} start that
    still finishes before its successors start (ties: fewer processors,
    lower site index).  [None] when some task cannot be placed at or
    after time 0.

    Partial application at [Grid.t -> Dag.t] precomputes the
    deadline-independent data (reference allocations, bottom-level order,
    per-⟨site, task⟩ candidate counts and site-scaled durations);
    deadline sweeps — {!tightest}'s search — reuse the closure instead of
    rebuilding it per probe. *)

val tightest : ?bd:bound_method -> Mp_platform.Grid.t -> Mp_dag.Dag.t -> (int * t) option
(** The smallest feasible deadline of {!deadline}, found by
    {!Deadline.search} (60 s resolution) from the critical-path length
    with every task on its fastest site at full size. *)

val validate : Mp_platform.Grid.t -> Mp_dag.Dag.t -> t -> (unit, string) result
(** Feasibility: per-site capacity, precedence across sites, durations
    covering the tasks' (speed-scaled) execution times, starts at or
    after 0. *)

val pp : Format.formatter -> t -> unit

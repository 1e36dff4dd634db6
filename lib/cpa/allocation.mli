(** Allocation phase of the CPA algorithm (Radulescu & van Gemund, ICPP'01).

    Starting from one processor per task, the allocation of the
    critical-path task with the largest relative execution-time reduction
    is repeatedly incremented, until the critical-path length [T_CP] no
    longer exceeds the average area [T_A = (Σ n_i · w_i(n_i)) / p].

    Two stopping criteria are provided:

    - [Classic] — exactly the above.
    - [Improved] — the behaviour of the modified criterion of N'Takpé,
      Suter & Casanova (ISPDC'07), which the paper adopts: over-allocation
      on wide DAGs is prevented by additionally capping each task's
      allocation at [⌈p / width(level(t))⌉] (an MCPA-inspired per-level
      fairness bound) and by ignoring increments whose relative gain is
      negligible.  See DESIGN.md ("Substitutions") for the rationale. *)

type criterion = Classic | Improved

val allocate : ?criterion:criterion -> p:int -> Mp_dag.Dag.t -> int array
(** [allocate ~p dag] returns the per-task processor allocation, each in
    [\[1, p\]].  Default criterion is [Improved] (the paper's CPA).
    Raises [Invalid_argument] if [p < 1]. *)

val per_procs : Mp_dag.Dag.t -> int -> int array
(** [per_procs dag] is [fun p -> allocate ~p dag] that runs {!allocate}
    once per distinct [p] and hands back the same array afterwards.  A
    scheduler that needs one allocation as its order's weights, its
    bounds and its reference makes one per schedule (or prepared
    closure) and passes it along, so each allocation runs once; the
    table lives as long as that closure.  The ["cpa.allocate.*"]
    counters count the allocations run, while the decision journal
    still records a [cpa_alloc] per request, so explain reports are the
    same as when every consumer ran its own.  Callers must not mutate
    the arrays. *)

val weights : Mp_dag.Dag.t -> allocs:int array -> float array
(** Execution-time weights (un-rounded) induced by an allocation; the
    input to bottom-level computations. *)

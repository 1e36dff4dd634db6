(** iCASLB — the one-step (integrated) processor allocation and scheduling
    algorithm of Vydyanathan et al. (ICPP 2006), which the paper names as
    the natural next candidate beyond CPA (Section 7, future work).

    Unlike CPA's two phases, iCASLB interleaves allocation and mapping: at
    each step it schedules the whole DAG with the current allocations
    (list scheduling with backfilling — our calendar's earliest-fit
    placement backfills by construction), then grows the allocation of the
    critical-path task with the best marginal benefit.  A {e look-ahead}
    keeps exploring a bounded number of non-improving increments so the
    search is not trapped in local minima, and the best schedule ever seen
    is returned.

    Provided as an extension and an ablation baseline against CPA. *)

val allocate_and_schedule : p:int -> Mp_dag.Dag.t -> int array * Schedule.t
(** [allocate_and_schedule ~p dag] returns the final allocations and the
    best schedule found.  The look-ahead tolerates 8 consecutive
    non-improving allocation increments before stopping.  Raises
    [Invalid_argument] if [p < 1]. *)

val schedule : p:int -> Mp_dag.Dag.t -> Schedule.t
(** Just the schedule. *)

(** Execution of algorithm sets over instance sets, producing per-scenario
    result matrices for {!Metrics}.

    Both runners fan their ⟨instance, algorithm⟩ cells over a
    {!Mp_prelude.Pool} of domains.  Results are {e bit-identical} to the
    sequential run whatever the worker count: every cell computes from the
    instance's own immutable environment and writes into its own result
    slot, and slots are merged in cell order (see the determinism notes in
    DESIGN.md).  The caller owns [~pool] and may reuse it across
    scenarios; a pool of one worker is the sequential reference. *)

type ressched_result = {
  tat : Metrics.scenario_result;  (** turn-around time, seconds *)
  cpu_hours : Metrics.scenario_result;
}

type deadline_result = {
  tightest : Metrics.scenario_result;  (** tightest achievable deadline, seconds *)
  loose_cpu_hours : Metrics.scenario_result;  (** CPU-hours at the loose deadline *)
}

val ressched :
  ?validate:bool ->
  pool:Mp_prelude.Pool.t ->
  algos:Mp_core.Algo.ressched list ->
  scenario:string ->
  Instance.t list ->
  ressched_result
(** [ressched ~algos ~scenario instances] runs every algorithm on every
    instance and returns the turn-around-time and CPU-hours result
    matrices.  With [validate] (default false), every produced schedule is
    checked against the instance's calendar and DAG, and an exception is
    raised on any infeasibility — used by the test suite.  A worker's
    exception propagates to the caller (the smallest failing cell index
    wins, as in a sequential run). *)

val deadline :
  ?validate:bool ->
  pool:Mp_prelude.Pool.t ->
  algos:Mp_core.Algo.deadline list ->
  scenario:string ->
  Instance.t list ->
  deadline_result
(** [deadline ~algos ~scenario instances] evaluates deadline algorithms as
    in Section 5.3: for each instance, each algorithm's {e tightest
    achievable deadline} is found by binary search; then each algorithm is
    re-run with a {e loose} deadline (1.5 × the latest tightest deadline
    across algorithms) and its CPU-hours recorded.
    An algorithm that fails even at the loose deadline falls back to its
    tightest-deadline schedule's CPU-hours.  The two phases are each
    fanned over the pool; the loose deadline of an instance couples its
    cells, so the second phase starts when the first completes. *)

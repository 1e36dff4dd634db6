(** Turn-around-time minimization under advance reservations — problem
    RESSCHED (Section 4).

    The algorithm (Section 4.2):

    + compute a bottom level for every task (per a {!Bottom_level.method_})
      and sort tasks by decreasing bottom level;
    + for each task, in order, pick the feasible ⟨processors, start⟩ pair —
      processors ranging up to the task's {!Bound.method_} bound — that
      yields the {e earliest completion time} given the competing
      reservations and previously placed tasks, and reserve it.

    Ties on completion time are broken toward fewer processors (cheaper),
    then earlier start.

    [BL_x_BD_y] names the 16 combinations; the paper evaluates 12 of them
    plus the BD_HALF strawman. *)

val schedule :
  ?bl:Bottom_level.method_ ->
  ?bd:Bound.method_ ->
  ?now:int ->
  Env.t ->
  Mp_dag.Dag.t ->
  Mp_cpa.Schedule.t
(** [schedule env dag] runs the list scheduler.  Defaults: [bl = BL_CPAR],
    [bd = BD_CPAR] — the paper's recommended algorithm.  [now] (default 0)
    is the earliest allowed start time, used when scheduling an
    application that arrives later than the calendar's origin (see
    [Mp_sim.Campaign]).  Always succeeds (the calendar's final segment is
    fully available, so a fit exists for every task). *)

val name : bl:Bottom_level.method_ -> bd:Bound.method_ -> string
(** E.g. ["BL_CPAR_BD_CPA"]. *)

val place :
  ?kind:Mp_forensics.Journal.kind ->
  Mp_platform.Calendar.Txn.t ->
  Mp_dag.Task.t ->
  ready:int ->
  cands:Mp_dag.Task.candidates ->
  int * int * int
(** One earliest-completion placement decision on a calendar
    transaction: the ⟨start, finish, processors⟩ triple, over the
    task's candidate processor counts [cands] (from
    {!Mp_dag.Task.candidates}), with the earliest completion at or after
    [ready], ties toward fewer processors.  Exposed for {!Online}, which
    shares the placement rule but interleaves competing reservations
    with the placements.  [kind] (default [Forward]) only tags the
    {!Mp_forensics.Journal} entry when journaling is on; it never
    affects the decision.  The caller reserves the returned slot. *)

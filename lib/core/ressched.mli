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
    then the lower site (see {!place}).

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
  Mp_platform.Calendar.t array ->
  Mp_dag.Task.t ->
  ready:int ->
  cands:Mp_dag.Task.candidates array ->
  int * int * int * int
(** The one earliest-completion placement decision, over one calendar
    per site: [place cals task ~ready ~cands] is the
    ⟨site, start, finish, processors⟩ with the earliest completion at or
    after [ready] among every site [s]'s candidate processor counts
    [cands.(s)] (from {!Mp_dag.Task.candidates}, whose [durs] may be
    site-scaled) on [cals.(s)].  Sites are scanned in index order, each
    by descending processor count, and a later candidate wins only with
    an earlier completion or, at equal completion, fewer processors: ties
    go to fewer processors, then the lower site.  {!schedule} and
    {!Online} pass one site; {!Hressched} passes its grid.

    Each site's scan stops early once no remaining candidate can win,
    and the best fit so far bounds the calendar queries of every later
    candidate; neither changes the decision.  Counts in
    [ressched.tasks_placed] and [ressched.early_cuts], inside the
    [ressched.place] span.  With journaling on, the placement is one
    {!Mp_forensics.Journal} entry, whose bound and candidate count sum
    over the sites, tagged [kind] (default [Forward]); [kind] never
    affects the decision.  The caller reserves the returned slot on
    [cals.(site)]. *)

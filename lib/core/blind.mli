(** RESSCHED without calendar visibility — the practical variant the paper
    sketches in Sections 3.2.2 and 7: the application scheduler cannot
    read the reservation schedule and must find each task's reservation
    through a bounded number of trial-and-error [Reserve]/[Cancel]
    requests against site 0 of a scheduling-service
    {!Mp_service.Engine}.

    The algorithm mirrors [Ressched.schedule] (BL_CPAR order, BD_CPAR-like
    allocation bounds computed from a {e guess} [q] of the average
    availability, earliest-completion placement) but, instead of scanning
    the calendar, it spends a per-task probe budget:

    + for each candidate processor count (distinct-duration counts under
      the task's bound, largest first), request the task at its ready
      time; on rejection, follow the system's suggested start;
    + keep the best ⟨processors, start⟩ seen; stop early when the budget
      is exhausted, committing to the best granted option.

    With an unbounded budget this finds the same earliest-completion
    placements as the omniscient scheduler; small budgets trade schedule
    quality for fewer scheduler interactions (quantified by the
    [blind-probes] ablation in the benchmark harness). *)

val schedule :
  ?budget:int ->
  ?bl:Bottom_level.method_ ->
  q:int ->
  engine:Mp_service.Engine.t ->
  Mp_dag.Dag.t ->
  Mp_cpa.Schedule.t * int
(** [schedule ~q ~engine dag] schedules every task through [Reserve] and
    [Cancel] requests to site 0 of [engine] and returns the schedule with
    the number of [Reserve] requests it made (cancellations are free).
    [budget] (default 16) bounds the number of requests per task; at
    least one placement always succeeds (the suggestion chain for 1
    processor terminates at a feasible slot).  [q] is the scheduler's own
    estimate of average availability, used to compute CPA bounds and
    weights; the cluster size is read from the site's calendar.  The
    returned schedule's reservations have already been granted (they are
    in [Engine.granted engine ~site:0]).  Raises [Invalid_argument] if
    [budget < 1]. *)

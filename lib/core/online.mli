(** RESSCHED while the reservation schedule changes under the scheduler's
    feet — removing the paper's first simplifying assumption (Sections
    3.2.2 and 7: "the reservation schedule does not change while the
    application is being scheduled").

    Application tasks are placed one at a time (BL order, earliest
    completion, exactly as {!Ressched}); between two placements, competing
    users may submit their own requests — the competitor stream is a
    {!Mp_service.Request.t} stream, the same protocol [mpres serve]
    consumes.  A competitor's {!Mp_service.Request.Reserve} is granted
    when it still fits the current calendar — which includes our
    already-placed tasks, so placements we hold are never taken away — and
    lost otherwise.  Later application tasks must then work around every
    granted competitor reservation.  Non-[Reserve] competitor requests are
    inert here: queries never perturb the calendar, and competitor
    cancellations or DAG submissions are not modelled.

    The [online] ablation in the benchmark harness measures how much
    turn-around time degrades as the mid-scheduling arrival load grows. *)

val schedule :
  Env.t ->
  events:Mp_service.Request.t list array ->
  Mp_dag.Dag.t ->
  Mp_cpa.Schedule.t * Mp_platform.Reservation.t list
(** [schedule env ~events dag] places the DAG's tasks in bottom-level
    order; before the [k]-th placement, every request in [events.(k)] (if
    [k] is within bounds) is offered to the calendar in list order.
    Returns the application schedule and the competitor reservations that
    were granted.  Bottom levels and bounds are BL_CPAR and BD_CPAR, the
    paper's recommended RESSCHED algorithm.

    The returned schedule is feasible against the base calendar plus the
    granted competitor reservations (in that arrival order). *)

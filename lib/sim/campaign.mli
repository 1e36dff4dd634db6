(** Multi-application campaigns: several mixed-parallel applications
    arriving over time on the same reserved cluster.

    The paper schedules a single application against a fixed reservation
    schedule.  In deployment, each scheduled application's reservations
    become part of the {e next} application's competing load; this module
    iterates the paper's RESSCHED scheduler over a stream of arrivals,
    threading the calendar through, and reports per-application
    turn-around times (from each application's arrival instant) and the
    cluster-level picture. *)

type arrival = { at : int; dag : Mp_dag.Dag.t }

type app_result = {
  arrival : int;
  schedule : Mp_cpa.Schedule.t;
  turnaround : int;  (** completion − arrival *)
  cpu_hours : float;
}

type t = {
  apps : app_result list;  (** in arrival order *)
  final_calendar : Mp_platform.Calendar.t;  (** base + every application *)
  makespan : int;  (** completion of the last application *)
  total_cpu_hours : float;
}

val run :
  ?bl:Mp_core.Bottom_level.method_ ->
  ?bd:Mp_core.Bound.method_ ->
  Mp_core.Env.t ->
  arrival list ->
  t
(** [run env arrivals] schedules the applications in arrival order (ties
    by position), each seeing the base calendar plus all previously
    scheduled applications, with its tasks constrained to start no
    earlier than its arrival.  The availability estimate [q] is refreshed
    for every application from the current calendar (7-day window from
    its arrival).  Raises [Invalid_argument] on a negative arrival time. *)

val run_many :
  ?pool:Mp_prelude.Pool.t ->
  ?jobs:int ->
  ?bl:Mp_core.Bottom_level.method_ ->
  ?bd:Mp_core.Bound.method_ ->
  (Mp_core.Env.t * arrival list) list ->
  t list
(** [run_many campaigns] runs several {e independent} campaigns (e.g.
    per-tenant clusters or what-if calendars), fanned over a
    {!Mp_prelude.Pool}.  Within a campaign the calendar threading stays
    strictly sequential; across campaigns there is no shared state, so
    the result list is bit-identical to mapping {!run} sequentially.
    [~pool] reuses an existing pool;
    otherwise a transient pool of [jobs] (default
    {!Mp_prelude.Pool.default_jobs}) workers is used. *)

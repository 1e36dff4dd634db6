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

val run : Mp_core.Env.t -> arrival list -> t
(** [run env arrivals] schedules the applications in arrival order (ties
    by position) with BD_CPAR, the paper's recommended RESSCHED
    algorithm, each seeing the base calendar plus all previously
    scheduled applications, with its tasks constrained to start no
    earlier than its arrival.  The availability estimate [q] is refreshed
    for every application from the current calendar (7-day window from
    its arrival).  Raises [Invalid_argument] on a negative arrival time. *)

(** A complete schedule for a DAG: one reservation (start, finish,
    processor count) per task.

    Produced both by the no-reservation CPA mapping phase and by the
    advance-reservation algorithms of [Mp_core]; shared here so they can be
    validated and measured uniformly. *)

type slot = { start : int; finish : int; procs : int }

type t = { slots : slot array }

val slot : t -> int -> slot
val start : t -> int -> int
val finish : t -> int -> int
val procs : t -> int -> int

val turnaround : t -> int
(** Latest finish time.  Since the scheduling instant is time 0, this is
    the application turn-around time (problem RESSCHED's objective). *)

val earliest_start : t -> int

val cpu_seconds : t -> int
(** Σ procs × duration over all tasks. *)

val cpu_hours : t -> float
(** The paper's resource-consumption metric. *)

val reservations : t -> Mp_platform.Reservation.t list
(** The schedule's slots as reservations, in start order. *)

val render_slots : t -> Mp_forensics.Render.slot list
(** The slots as chart slots for {!Mp_forensics.Render}, labelled by task
    index, in task order. *)

val validate :
  Mp_dag.Dag.t -> base:Mp_platform.Calendar.t -> ?deadline:int -> t -> (unit, string) result
(** Check that the schedule is feasible: every slot has [procs >= 1] within
    the cluster size and a duration covering its task's execution time on
    that many processors; every task starts at or after time 0; precedence
    constraints hold ([finish pred <= start succ]); all slots together fit
    the base calendar's remaining capacity; and, when [deadline] is given,
    the latest finish is at most the deadline. *)

val pp : Format.formatter -> t -> unit

val to_json : ?competing:Mp_platform.Reservation.t list -> t -> string
(** Machine-readable rendering for interop with external tooling:
    {v {"turnaround": …, "cpu_hours": …,
        "tasks": [{"id", "start", "finish", "procs"} …],
        "competing": [{"start", "finish", "procs"} …]} v} *)

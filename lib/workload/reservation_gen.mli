(** Reservation-schedule generation (paper Section 3.2.1).

    Since real advance-reservation logs are scarce, the paper derives
    reservation schedules from batch-job logs: a fraction [phi] of jobs is
    tagged as "reserved" and all other jobs are discarded; a random instant
    [T] is chosen as the application-scheduling time; and, because a
    stationary schedule is unrealistic (one expects fewer reservations
    further in the future), the post-[T] schedule is reshaped with one of
    three methods:

    - [Linear] — the number of reservations per day decreases approximately
      linearly from time [T], reaching zero at [T] + 7 days;
    - [Expo] — same, with an approximately exponential decrease;
    - [Real] — reservations whose job was submitted after [T] are removed
      (only reservations actually known at [T] remain).

    All returned times are {e relative to T} (the scheduler's "now" is 0). *)

type method_ = Linear | Expo | Real

val method_name : method_ -> string
val all_methods : method_ list

type t = {
  procs : int;  (** cluster size *)
  past : Mp_platform.Reservation.t list;
      (** reservations active during the 7 days before T (times < 0);
          used only for the historical-availability estimate *)
  future : Mp_platform.Reservation.t list;
      (** competing reservations the application scheduler must avoid
          (active at or after time 0) *)
}

val tag : Mp_prelude.Rng.t -> phi:float -> Job.t list -> Job.t list
(** [tag rng ~phi jobs] keeps each job with probability [phi] (jobs without
    a start time are dropped first). *)

val extract :
  Mp_prelude.Rng.t -> method_ -> procs:int -> at:int -> Job.t list -> t
(** [extract rng m ~procs ~at tagged] turns the tagged jobs into a
    reservation schedule as seen at absolute log time [at], reshaped by
    method [m].  Reservations added by the Linear/Expo methods are cloned
    from existing ones with fresh start times and are only kept if they fit
    the cluster's remaining capacity.  Horizon: nothing survives past
    +7 days. *)

val random_instant : Mp_prelude.Rng.t -> Job.t list -> int
(** A scheduling instant drawn uniformly from the middle 60 % of the log's
    time span, so that both past and future windows are populated. *)

val calendar : t -> Mp_platform.Calendar.t
(** Calendar of the future (competing) reservations — the input to the
    scheduling algorithms. *)

val historical_average : t -> float
(** Time-averaged processor availability over the 7 days before T — the
    paper's [q], used by the *_CPAR algorithm variants.  Falls back to the
    future window when no past reservations exist. *)


(** Synthetic Grid'5000-style advance-reservation log.

    The paper validates its reservation-schedule generator against 2.5
    years of (non-public) Grid'5000 reservation logs and reports only
    aggregate statistics (Table 3): an average job execution time of
    1.84 h, an average submit-to-start time of 3.24 h, and small
    coefficients of variation of these averages across sampled windows.
    This module generates reservation logs directly — every job {e is} a
    reservation made [wait] seconds ahead of its start — matching those
    aggregates, which is all the paper's experiments consume.

    The default site size (368 processors) is in the range of a Grid'5000
    cluster of the period. *)

type t = {
  cpus : int;
  jobs : Job.t list;  (** every job carries a start time *)
}

val generate : Mp_prelude.Rng.t -> ?cpus:int -> ?days:int -> ?load:float -> unit -> t
(** [generate rng ()] draws a reservation log spanning [days] (default 60)
    days on [cpus] (default 368) processors with average utilization [load] (default
    0.30, matching a moderately used site).  Requested start times that
    would overcommit the site are pushed back to the earliest feasible
    time, as a reservation system would. *)

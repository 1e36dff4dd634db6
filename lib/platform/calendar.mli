(** Availability calendar of a homogeneous cluster under advance
    reservations.

    The calendar is a persistent step function mapping every instant to the
    number of processors still available at that instant.  It starts fully
    available ([procs] everywhere, over all of time, past included) and each
    {!reserve} subtracts a {!Reservation.t}'s processors over its interval.

    Persistence matters: the deadline algorithms retry whole schedules for
    a sweep of [lambda] values and the binary search for the tightest
    deadline re-schedules from the same base calendar many times.  Sharing
    the base calendar and layering task reservations on top costs
    [O(log R)] per reservation instead of a full copy.

    The representation is {!Mp_index}: a balanced breakpoint tree with
    hierarchical (min, max) availability summaries (see "Calendar index"
    in DESIGN.md).  Point lookups, window minima, {!reserve} and
    {!release} are O(log R) in the number of breakpoints; each fit query
    is one walk costing about one node visit per breakpoint it crosses
    plus O(log R).  Both stay within the per-task [O(R)] cost assumed by
    the paper's complexity analysis (Section 6.1, Table 8), and the
    tree keeps them far below it on the million-reservation calendars
    the scheduling service holds. *)

type t
(** A calendar version: the {!Mp_index} snapshot itself.  Immutable;
    {!reserve} and {!release} return a new version that shares structure
    with the old, which stays valid.  A linear placement loop keeps its
    current version in a local [ref]. *)

exception Overcommitted of Reservation.t
(** Raised by {!reserve} when a reservation requests more processors than
    are available somewhere in its interval. *)

val create : procs:int -> t
(** Empty calendar of a cluster with [procs] processors.  Raises
    [Invalid_argument] if [procs <= 0]. *)

val procs : t -> int
(** Total processors of the cluster. *)

val breakpoints : t -> int
(** Number of availability breakpoints (a proxy for the number of live
    reservations; useful in complexity experiments). *)

val available_at : t -> int -> int
(** Processors available at the given instant. *)

val min_available : t -> from_:int -> until:int -> int
(** Minimum availability over [\[from_, until)].  Requires [from_ < until]. *)

val average_available : t -> from_:int -> until:int -> float
(** Time-averaged availability over [\[from_, until)].  This is the paper's
    "historical average number of available processors" when evaluated over
    a past window. *)

val can_reserve : t -> Reservation.t -> bool
(** Whether {!reserve} would succeed. *)

val reserve : t -> Reservation.t -> t
(** Subtract the reservation from availability.
    @raise Overcommitted if availability would go negative. *)

val reserve_opt : t -> Reservation.t -> t option
(** Non-raising variant of {!reserve}: [None] when it would overcommit.
    Checks and applies the window in one index call, so there is no
    need to ask {!can_reserve} first. *)

val release : t -> Reservation.t -> t
(** Undo a {!reserve}: add the reservation's processors back over its
    interval.  Raises [Invalid_argument] when the result would exceed the
    cluster size, i.e. when the reservation was not actually held. *)

val of_reservations : procs:int -> Reservation.t list -> t
(** Calendar with all the given reservations applied.
    @raise Overcommitted on the first infeasible one. *)

val earliest_fit : ?limit:int -> t -> after:int -> procs:int -> dur:int -> int option
(** [earliest_fit t ~after ~procs ~dur] is the earliest start time [s >=
    after] such that at least [procs] processors are available over the
    whole of [\[s, s + dur)], or [None] if no such time exists: when
    [procs] exceeds the availability of the calendar's final, unbounded
    segment, or when no such window ends at or before [max_int].
    Requires [procs >= 1] and [dur >= 1].

    [limit] (default unbounded) makes the query answer [None] as soon as
    every remaining candidate start exceeds it: identical to running the
    unbounded query and discarding a result above [limit], but without
    walking the rest of the calendar.  For a caller that rejects starts
    past [deadline - dur] anyway, passing that bound turns a doomed
    full-calendar scan into an immediate [None]. *)

val latest_fit : t -> earliest:int -> finish_by:int -> procs:int -> dur:int -> int option
(** [latest_fit t ~earliest ~finish_by ~procs ~dur] is the latest start
    time [s] with [s >= earliest] and [s + dur <= finish_by] such that
    [procs] processors are available over [\[s, s + dur)], or [None]
    (in particular when [finish_by - earliest < dur], however close to
    [min_int] the bounds are).  Requires [procs >= 1] and [dur >= 1]. *)

val segments : t -> from_:int -> until:int -> (int * int * int) list
(** Step-function view over a window: [(start, finish, available)] triples
    covering [\[from_, until)] in increasing time order. *)

val fold_segments :
  t -> from_:int -> until:int -> init:'a -> f:('a -> start:int -> finish:int -> avail:int -> 'a) -> 'a
(** Fold over the window's segments without materializing them. *)

val busy_rectangles : t -> from_:int -> until:int -> Reservation.t list
(** Decompose the window's busy profile ([procs - available]) into maximal
    rectangles: a list of reservations that, applied to an empty calendar,
    reproduces exactly this calendar's availability over
    [\[from_, until)].  Used for display (Gantt charts) when the original
    reservation list is no longer at hand. *)

val busy_series : t -> from_:int -> until:int -> step:int -> float list
(** Number of {e reserved} processors sampled every [step] seconds across
    the window — the "reservation schedule" time series the paper
    correlates between generation methods. *)

val pp : Format.formatter -> t -> unit
(** Render breakpoints (debugging aid). *)

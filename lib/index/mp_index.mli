(** Availability index: a balanced search tree over the step function
    "time -> processors available", with hierarchical (min, max)
    availability summaries — the O(log R) generalization of the flat
    per-block extrema the calendar carried before.

    The step function is stored as its breakpoints: each tree node holds
    one breakpoint [time -> value], where [value] is the number of
    processors available from [time] until the next breakpoint; a
    sentinel breakpoint at [min_int] (always present) carries the initial
    capacity, and the last breakpoint extends to +∞.  Every node
    additionally summarizes its subtree with the minimum and maximum
    value and carries a lazy "add" tag, so that

    - point lookups and window minima/maxima are O(log R), and so are
      {!reserve} and {!release}: one capacity descent plus one update
      descent that inserts the window's ends and adds over the covered
      breakpoints in the same path copy, and
    - each fit query is one walk over the breakpoints it crosses:
      {!earliest_fit} forward from its start, {!latest_fit} backward
      from its deadline.  The walk skips every subtree whose summary
      shows it cannot change the answer, so it costs about one node
      visit per breakpoint crossed plus O(log R), and allocates nothing
      except the [Some] it returns.

    [R] is the number of breakpoints ({!breakpoints}), at most
    [2 x reservations + 1].

    The index is persistent: every update path-copies O(log R) nodes and
    returns a new snapshot, and old snapshots stay valid.  A linear
    reserve-then-query loop keeps its current snapshot in a local [ref];
    nothing is ever mutated in place, so a snapshot may be shared freely.

    All operations are output-preserving with respect to a brute-force
    walk of the step function: fit queries have a unique semantically
    determined answer, pinned against a reference model by
    [test/test_index.ml] and [test/test_platform.ml].

    {2 Observability}

    Two {!Mp_obs} counters trace the work done (recorded only when
    tracing is enabled; single branch, no allocation otherwise):

    - ["index.descents"]: one per public query or update;
    - ["index.node_visits"]: one per tree node touched.  The
      visits-per-descent ratio is the measured asymptotic — the
      "Calendar index" bench section pins it to ~log R. *)

type t
(** A persistent availability index.  Immutable; updates return new
    snapshots sharing structure with the old. *)

val create : procs:int -> t
(** [create ~procs] is the index of an empty calendar on [procs]
    processors: available capacity is [procs] everywhere.  Raises
    [Invalid_argument] if [procs <= 0]. *)

val capacity : t -> int
(** Total processor count (the value no point may exceed). *)

val breakpoints : t -> int
(** Number of stored breakpoints, including the [min_int] sentinel.
    O(1). *)

val available_at : t -> int -> int
(** [available_at t time] is the capacity free at instant [time].
    O(log R). *)

val min_in : t -> from_:int -> until:int -> int
(** Minimum availability over the window [\[from_, until)].  The window
    must be non-empty ([from_ < until]); this is not checked here (the
    calendar layer owns user-facing validation). O(log R). *)

val max_in : t -> from_:int -> until:int -> int
(** Maximum availability over [\[from_, until)].  O(log R). *)

val can_reserve : t -> start:int -> finish:int -> procs:int -> bool
(** Whether [procs] processors are free over all of [\[start, finish)]. *)

val reserve : t -> start:int -> finish:int -> procs:int -> t option
(** [reserve t ~start ~finish ~procs] subtracts [procs] from the window
    [\[start, finish)], or returns [None] if some instant has fewer than
    [procs] free.  Raises [Invalid_argument] if [start >= finish] or
    [procs < 1].  One capacity descent reads the window's minimum; one
    update descent then inserts [start] and [finish] where absent and
    subtracts over the window in the same path copy (when both ends fall
    in one gap, [finish] takes a separate insert).  O(log R); keys are
    never removed, so {!breakpoints} grows by the ends inserted. *)

val release : t -> start:int -> finish:int -> procs:int -> t option
(** Inverse of {!reserve}: adds [procs] back over [\[start, finish)], or
    [None] if that would lift any instant above {!capacity} (the window
    was not fully held; the test cannot overflow, so even [procs =
    max_int] is refused).  Raises [Invalid_argument] on a degenerate
    window, as {!reserve} does.  One capacity descent for the window's
    maximum plus one update descent, as {!reserve}.  O(log R). *)

val earliest_fit : ?limit:int -> t -> after:int -> procs:int -> dur:int -> int option
(** [earliest_fit t ~after ~procs ~dur] is the earliest start [s >=
    after] such that [procs] processors are free over [\[s, s + dur)],
    or [None] if no such start exists (with [~limit], none with
    [s <= limit]).  Candidate starts are [after] and the breakpoints
    after it.  One in-order walk over those breakpoints finds the
    answer, skipping any subtree whose (min, max) summary shows that no
    breakpoint inside blocks the current candidate or opens a new one:
    it costs about one node visit per breakpoint crossed plus
    O(log R), and allocates only the returned [Some].  [after] below
    [min_int + 1] (the sentinel's key) counts as [min_int + 1].  A
    window must end at or before [max_int]: with no such start, for
    instance when [after > max_int - dur], the answer is [None].  Raises
    [Invalid_argument] if [procs < 1] or [dur < 1]. *)

val latest_fit : t -> earliest:int -> finish_by:int -> procs:int -> dur:int -> int option
(** [latest_fit t ~earliest ~finish_by ~procs ~dur] is the latest start
    [s >= earliest] with [s + dur <= finish_by] and [procs] processors
    free over [\[s, s + dur)], or [None].  One reverse in-order walk
    from [finish_by] finds it, the mirror of {!earliest_fit}: it lowers
    the candidate window's end past each blocked breakpoint the window
    meets, and stops at the first segment ending at or before the
    window's start.  It costs about one node visit per breakpoint
    crossed plus O(log R), and allocates only the returned [Some].  The
    answer is [None] when [finish_by - earliest < dur] (computed without
    wrapping, so a [finish_by] near [min_int] cannot yield a start after
    it), when [procs] exceeds {!capacity}, and when blocked segments
    leave no clear window of [dur] inside [\[earliest, finish_by)].
    Raises [Invalid_argument] if [procs < 1] or [dur < 1]. *)

val fold_segments :
  t ->
  from_:int ->
  until:int ->
  init:'a ->
  f:('a -> start:int -> finish:int -> avail:int -> 'a) ->
  'a
(** Fold over the maximal constant-availability segments intersecting
    [\[from_, until)], clipped to the window, in increasing time order.
    [init] when the window is empty. *)

val iter_breakpoints : t -> (int -> int -> unit) -> unit
(** Iterate over all stored breakpoints [(time, value)] in increasing
    time order, starting with the [min_int] sentinel. *)

val self_check : t -> unit
(** Validate internal invariants (AVL balance, subtree least keys,
    (min, max) summaries vs recomputation, sentinel presence, key order,
    the {!breakpoints} count).  Raises [Failure] with a description on
    violation.  For tests; O(R). *)

(** Deadline scheduling under advance reservations — problem RESSCHEDDL
    (Section 5).

    All algorithms schedule tasks {e backward}: in increasing bottom-level
    order (BL_CPAR weights), each task must finish by the minimum start
    time of its already-placed successors (or by the application deadline
    [K] for the exit task), and is placed as a reservation no earlier than
    "now" (time 0).  An algorithm fails — returns [None] — when some task
    cannot be placed in its window.

    {2 Aggressive algorithms} (Section 5.2.1)

    Pick the ⟨processors, start⟩ pair with the {e latest} start time,
    processors bounded per {!Bound.method_}-like rules: [DL_BD_ALL] (bound
    [p]), [DL_BD_CPA] (CPA allocations for [p]), [DL_BD_CPAR] (CPA
    allocations for [q]).  Aggressive: they spend processors freely no
    matter how loose the deadline.

    {2 Resource-conservative algorithms} (Section 5.2.2)

    Before placing task [t_i], a CPA reference schedule of all
    not-yet-placed tasks is computed (allocation and mapping on [q']
    processors, [q' = p] for [DL_RC_CPA], [q' = q] for [DL_RC_CPAR]),
    yielding a reference start [S_i].  The task takes the {e fewest}
    processors whose earliest feasible start is at least the threshold
    [S_i + λ·(dl_i − S_i)] (and still finishes by [dl_i]); [λ = 0] is the
    pure resource-conservative behaviour, [λ = 1] effectively the
    aggressive one.  When no pair clears the threshold the algorithm falls
    back to aggressive placement — unbounded, or CPA(q)-bounded for the
    RCBD variant.

    {2 Hybrid} (Section 5.4)

    [DL_RC_CPAR-λ]: sweep λ from 0 to 1 in steps of 0.05 and keep the
    first (most resource-conservative) λ that meets the deadline.
    [DL_RCBD_CPAR-λ]: same with the CPA-bounded fallback. *)

type aggressive = DL_BD_ALL | DL_BD_CPA | DL_BD_CPAR
type conservative = DL_RC_CPA | DL_RC_CPAR

val aggressive_name : aggressive -> string
val conservative_name : conservative -> string

val aggressive :
  aggressive ->
  Env.t ->
  Mp_dag.Dag.t ->
  deadline:int ->
  Mp_cpa.Schedule.t option
(** Partial application at [Env.t -> Dag.t] precomputes the
    allocation-dependent data (bottom-level order, CPA bounds, the
    per-task {!Mp_dag.Task.candidates} tables and — for the conservative
    variants — the memoized prefix reference schedules of
    {!Mp_cpa.Mapping.prefix_references}), none of which depends on the
    deadline; deadline sweeps — binary searches, λ sweeps — should reuse
    the resulting closure.  The conservative closures carry a
    lazily-filled memo (see {!resource_conservative}); an aggressive
    closure is safe to share across domains. *)

val resource_conservative :
  ?bounded_fallback:bool ->
  conservative ->
  Env.t ->
  Mp_dag.Dag.t ->
  lambda:float ->
  deadline:int ->
  Mp_cpa.Schedule.t option
(** Same precomputation note as {!aggressive}; [lambda] stays a
    per-call argument so the hybrid's sweep shares one preparation.
    [lambda = 0.] is the pure resource-conservative algorithm of
    Table 6.  Default [bounded_fallback = false].  The closure's memo of
    reference schedules fills lazily: share one closure within a domain,
    not across concurrently-running domains.  Raises [Invalid_argument]
    unless [0 <= lambda <= 1] (a NaN [lambda] included). *)

val hybrid :
  ?bounded_fallback:bool ->
  Env.t ->
  Mp_dag.Dag.t ->
  deadline:int ->
  (Mp_cpa.Schedule.t * float) option
(** λ-sweep over [DL_RC_CPAR]; returns the schedule and the λ used.
    The λ grid is [λ_k = min 1 (k · 0.05)] for [k = 0 … 20] — an
    integer-indexed grid with no accumulated float rounding, swept in
    order.  Default [bounded_fallback = false] (the DL_RC_CPAR-λ of the
    paper; pass [true] for DL_RCBD_CPAR-λ).  Same precomputation and
    memo notes as {!resource_conservative}. *)

val place_latest :
  Mp_platform.Calendar.t array ->
  Mp_dag.Task.t ->
  dl:int ->
  cands:Mp_dag.Task.candidates array ->
  (int * int * int * int) option
(** The one latest-start placement decision, over one calendar per site:
    [place_latest cals task ~dl ~cands] is the ⟨site, start, finish,
    processors⟩ with the latest start at or after time 0 that finishes
    by [dl], among every site [s]'s candidate processor counts
    [cands.(s)] (from {!Mp_dag.Task.candidates}, whose [durs] may be
    site-scaled) on [cals.(s)], or [None] when nothing fits.  Sites are
    scanned in index order, each by descending processor count, and a
    later candidate wins only with a later start or, at equal start,
    fewer processors: ties go to fewer processors, then the lower site.
    The aggressive algorithms and the conservative fallback pass one
    site; {!Hressched.deadline} passes its grid.

    Each site's scan stops early once no remaining candidate can start
    later, and the best start so far bounds the calendar queries of
    every later candidate; neither changes the decision.  With
    journaling on, the placement is one [Backward]
    {!Mp_forensics.Journal} entry, whose bound and candidate count sum
    over the sites.  The caller reserves the returned slot on
    [cals.(site)]. *)

val lower_bound : Env.t -> Mp_dag.Dag.t -> int
(** A deadline no algorithm can beat: the critical-path length with every
    task on all [p] processors, ignoring reservations. *)

val search :
  ?resolution:int -> lo:int -> (deadline:int -> 'a option) -> (int * 'a) option
(** [search ~lo probe] looks for the smallest deadline [probe] meets, to
    [resolution] seconds (default 60), as in the paper's evaluation
    (Section 5.3).  The upper bracket is found by doubling from
    [lo' = max 1 lo]: the first deadline among [lo' · 2^j],
    [j = 0 … 21], that [probe] meets, or [None] if there is none.
    Bisection then narrows [(lo', bracket]] and returns the last met
    midpoint, or the bracket.

    For any [probe], an answer [Some (k, x)] is met ([x] is what
    [probe ~deadline:k] returned), and unless [k = lo'], some deadline in
    [[k - resolution, k)] was probed and missed.  That is all it
    promises: a [probe] need not be monotone in the deadline (the
    RESSCHEDDL heuristics are not), so a smaller deadline it was never
    asked about may still be met.  For a [probe] whose feasibility is a
    threshold [t], the answer is [lo'] when [t <= lo'] and otherwise lies
    in [[t, t + resolution)].  No deadline is probed twice.  Each probe
    counts in [deadline.tightest.probes].  Raises [Invalid_argument] if
    [resolution < 1]. *)

val tightest :
  ?spec:Speculate.t ->
  (deadline:int -> Mp_cpa.Schedule.t option) ->
  Env.t ->
  Mp_dag.Dag.t ->
  (int * Mp_cpa.Schedule.t) option
(** [tightest algo env dag] is [search ~lo:(lower_bound env dag) algo]:
    the tightest deadline the algorithm meets, to [search]'s default 60 s
    resolution, with {!search}'s guarantee — the answer is met, and
    unless it is [max 1 (lower_bound env dag)], a deadline less than 60 s
    below it was missed.  Pass a prepared closure
    ([Deadline.aggressive a env dag], [Algo.deadline.prepare]), so every
    probe reuses one preparation.

    [?spec] is ignored.  It stays until the repository benchmark stops
    passing it; the change after that deletes it (see {!Speculate}). *)

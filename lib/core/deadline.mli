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
    [DL_RCBD_CPAR-λ]: same with the CPA-bounded fallback.

    {2 Speculation}

    {!tightest} takes [?spec] (a {!Speculate.t}): when given, idle pool
    workers evaluate the search's probes in waves, with the returned
    deadline and schedule {e identical} to the sequential run (see
    "Intra-schedule speculation" in DESIGN.md).  The probes then run
    on several domains at once, so the closure they call must share only
    read-only state: prepare it with {!conservative_prepared} or
    {!hybrid_prepared} under the {e same} [spec], which eagerly warms
    the closure's memo table.  {!aggressive_prepared} keeps no memo and
    needs no [spec].  Nothing else in this module speculates. *)

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

val aggressive_prepared :
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
    lazily-filled memo unless prepared under [?spec] (see
    {!conservative_prepared}); an aggressive closure is safe to share
    across domains. *)

val conservative_prepared :
  ?bounded_fallback:bool ->
  ?spec:Speculate.t ->
  conservative ->
  Env.t ->
  Mp_dag.Dag.t ->
  lambda:float ->
  deadline:int ->
  Mp_cpa.Schedule.t option
(** Prepared variant of {!resource_conservative} (same precomputation
    note as {!aggressive_prepared}; [lambda] stays a per-call argument so
    the hybrid's sweep shares one preparation).  Without [?spec] the
    closure's memo of reference schedules fills lazily: share one closure
    within a domain, not across concurrently-running domains.  With
    [?spec] the memo is forced at preparation, so a {!tightest} search
    given the same [spec] may fan the closure's probes across the
    pool. *)

val hybrid_prepared :
  ?bounded_fallback:bool ->
  ?step:float ->
  ?spec:Speculate.t ->
  Env.t ->
  Mp_dag.Dag.t ->
  deadline:int ->
  (Mp_cpa.Schedule.t * float) option
(** Prepared variant of {!hybrid}.  The λ grid is [λ_k = min 1 (k·step)]
    for [k = 0, 1, …] up to the first [k] with [k·step >= 1] — an
    integer-indexed grid with no accumulated float rounding, swept in
    order.  [?spec] only warms the memo, as for
    {!conservative_prepared}. *)

val resource_conservative :
  ?lambda:float ->
  ?bounded_fallback:bool ->
  conservative ->
  Env.t ->
  Mp_dag.Dag.t ->
  deadline:int ->
  Mp_cpa.Schedule.t option
(** Defaults: [lambda = 0.], [bounded_fallback = false]. *)

val hybrid :
  ?bounded_fallback:bool ->
  ?step:float ->
  Env.t ->
  Mp_dag.Dag.t ->
  deadline:int ->
  (Mp_cpa.Schedule.t * float) option
(** λ-sweep over [DL_RC_CPAR]; returns the schedule and the λ used.
    Defaults: [bounded_fallback = false] (the DL_RC_CPAR-λ of the paper;
    pass [true] for DL_RCBD_CPAR-λ), [step = 0.05]. *)

val lower_bound : Env.t -> Mp_dag.Dag.t -> int
(** A deadline no algorithm can beat: the critical-path length with every
    task on all [p] processors, ignoring reservations. *)

val tightest :
  ?resolution:int ->
  ?spec:Speculate.t ->
  (deadline:int -> Mp_cpa.Schedule.t option) ->
  Env.t ->
  Mp_dag.Dag.t ->
  (int * Mp_cpa.Schedule.t) option
(** [tightest algo env dag] binary-searches the smallest deadline the
    algorithm can meet, to [resolution] seconds (default 60), as in the
    paper's evaluation (Section 5.3).  The upper bracket is found by
    doubling from {!lower_bound}; [None] if the algorithm fails even on a
    deadline ~10{^6} times the lower bound.  With [?spec], the doubling
    bracket fans in waves and each bisection wave evaluates the current
    midpoint together with both possible next midpoints — same probed
    deadlines on the consumed path, same result; [algo] must then be
    safe to call from several domains at once (a closure prepared under
    the same [spec], see above). *)

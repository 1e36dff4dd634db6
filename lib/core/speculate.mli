(** Intra-schedule speculation: lending idle {!Mp_prelude.Pool} workers
    to {e one} tightest-deadline search, bit-identically.

    A [Speculate.t] bundles a pool with a busy flag.  One strategy uses
    it: {!Deadline.tightest} fans its doubling-bracket probes in waves
    of {!wave_width} over {!Mp_prelude.Pool.first_some}, and evaluates
    each bisection midpoint together with both possible next midpoints.
    The strategy is {e output-preserving by construction}: the chosen
    deadline, the schedule and every deterministic counter outside the
    [spec.*] family are identical to the sequential run (see
    "Intra-schedule speculation" in DESIGN.md for the argument, and the
    qcheck pin in [test_core.ml]).

    Speculation {e stands down} — {!acquire} returns [None] and the
    caller runs its plain sequential path — whenever:

    - the decision journal is on for the calling domain
      ({!Mp_forensics.Journal.enabled}): probes fanned to other domains
      would go unrecorded;
    - the pool is sequential ([jobs = 1]): nothing to lend;
    - another search already holds the pool (the busy flag): a
      {!Mp_prelude.Pool} batch is not re-entrant, so the {e outermost}
      search speculates and nested searches inside its probes run
      sequentially — deterministically, since the outer search holds the
      flag for its whole duration. *)

type t

val create : Mp_prelude.Pool.t -> t
(** Bundle a pool for lending.  The caller keeps ownership of the pool
    (and shuts it down); the same [t] may be offered to many searches,
    but the busy flag admits one speculating search at a time. *)

val wave_width : int
(** Probes per doubling-bracket wave.  A constant — never the pool's
    worker count — so the probe set a speculative search evaluates is
    identical for any jobs value. *)

val acquire : t option -> t option
(** [acquire spec] is [Some t] when speculation may proceed (and the
    caller now holds the busy flag — it must {!release}), [None] when
    the caller should run its sequential path.  [acquire None] is
    [None]. *)

val release : t -> unit

val lend : t option -> speculative:(t -> 'a) -> sequential:(unit -> 'a) -> 'a
(** [lend spec ~speculative ~sequential]: {!acquire}, run the matching
    path, {!release} on every exit. *)

val map_array : t -> (unit -> 'a) array -> 'a array
(** Evaluate all thunks on the pool ({!Mp_prelude.Pool.map_array});
    caller must hold the acquisition. *)

val first_some : t -> (unit -> 'a option) array -> (int * 'a) option
(** {!Mp_prelude.Pool.first_some} on the pool, with the wave recorded in
    the [spec.waves] / [spec.wave.probes] / [spec.wave.wasted] counters;
    caller must hold the acquisition. *)

(** {2 Probe accounting}

    Record-only counters ([spec.*] family, excluded from gated bench
    deltas): wave traffic. *)

val wave_probes : int -> unit
(** Record a wave of [n] probes ([spec.waves] + [spec.wave.probes]). *)

val wave_wasted : int -> unit
(** Record [n] evaluated-but-unconsumed wave probes. *)

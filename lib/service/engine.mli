(** The scheduling-service engine: typed requests against live per-site
    calendars.

    One engine owns an array of sites, each an independently sharded
    availability calendar — a long-lived {!Mp_platform.Calendar.Txn} over
    its own {!Mp_index} tree, so per-request fit queries and commits cost
    O(log R) even with 10⁵–10⁶ live reservations — plus the processor
    budget [q] given to DAG schedulers.  {!handle}
    services one {!Request.t} against one site and returns a
    {!Response.t}; {!run} consumes a whole {!Request.envelope} stream with
    deterministic admission control, optionally fanning sites out over an
    {!Mp_prelude.Pool}.

    {2 Determinism contract}

    A site is a sequential FIFO server: its requests are serviced one at a
    time in ⟨arrival, id⟩ order, and sites share no mutable state, so the
    outcome of every request — including which requests admission control
    sheds — is a pure function of the engine's initial state and the
    envelope stream.  {!run} therefore returns bit-identical outcomes for
    any pool size ([--jobs] fans {e sites} out, never requests; pinned by
    a qcheck property in [test_service.ml]).

    Admission control runs in {e simulated} time against the deterministic
    {!Request.cost} model, never wall-clock: each site tracks when its
    server frees up, sheds arrivals that would exceed [queue_limit]
    waiting requests, and sheds requests whose simulated queue delay
    exceeds their envelope [budget].  Wall-clock appears only in the
    record-only [wall_ns] measurement ({!outcome}), which feeds the bench
    latency percentiles and nothing else.

    {2 Observability}

    Every {!handle} wraps the dispatch in the ["service.request"]
    {!Mp_obs.Span} and ["service.handle"] {!Mp_obs.Timer} and bumps one
    ["service.<kind>"] counter per response ([service.granted],
    [service.rejected], ...).  Under {!run}, each envelope's
    admission decision is the ["service.admission"] span, fit queries and
    calendar mutations inside dispatch are ["service.fit"] and
    ["service.commit"] child spans, and all of a request's spans carry its
    envelope id and site as a trace tag ({!Mp_obs.Tag}), so one request's
    admission → fit → commit tree can be filtered out of a soak in
    Perfetto.  All record-only: tracing cannot change any decision.

    {2 Telemetry}

    Independent of tracing (and always on), each site keeps per-kind
    response counts, shed causes, simulated queue depth/peak and a
    bounded flight-recorder ring of the last 64 outcome digests — all
    simulated-time quantities mutated only from the site's own
    sequential stream, introspectable in-band with {!Request.Stats} and
    sampled into a time series by {!run}[ ~stats] (see {!Stats}).
    Record-only, like the probes: no scheduling decision reads them. *)

(** One site of the service: a live calendar plus the processor budget
    handed to DAG schedulers. *)
type site_spec = { calendar : Mp_platform.Calendar.t; q : int }

(** DAG-scheduling entry points injected by the layer that owns the
    algorithm registry ([Mp_core.Serve]); the engine itself only knows how
    to commit the resulting reservations.  Handlers run on worker domains
    under {!run} and must therefore be domain-safe (pure with respect to
    shared mutable state). *)
type handlers = {
  submit :
    algo:string ->
    deadline:Request.deadline_spec ->
    q:int ->
    Mp_platform.Calendar.t ->
    Mp_dag.Dag.t ->
    Response.t;
      (** Answer a {!Request.Submit_dag}: [Scheduled] (whose reservations
          the engine then commits to the site calendar), [Infeasible], or
          [Error]. *)
  explain :
    algo:string ->
    deadline:int option ->
    format:string ->
    q:int ->
    Mp_platform.Calendar.t ->
    Mp_dag.Dag.t ->
    Response.t;
      (** Answer a {!Request.Explain} with an [Explained] report; never
          changes the calendar. *)
}

type t

val create : ?handlers:handlers -> sites:site_spec array -> unit -> t
(** A fresh engine over copies of the given site specs (the spec array is
    not retained).  Raises [Invalid_argument] on an empty site array.
    The default handlers answer both [Submit_dag] and [Explain] with
    [Error "no scheduler attached (wire Mp_core.Serve.handlers)"], so the
    pure reservation-protocol subset works without [Mp_core]. *)

val handle : t -> site:int -> Request.t -> Response.t
(** Service one request immediately (no admission control):

    - [Reserve]: grant and commit, or reject with the earliest feasible
      alternative start — the trial-and-error semantics
      [Mp_core.Blind] drives (nonsensical arguments and [procs] beyond
      the cluster reject with no suggestion);
    - [Probe]: answer the feasibility query, calendar untouched;
    - [Cancel]: release one copy of a reservation granted by a previous
      [Reserve]; [Error] naming the reservation when it is not held (one
      hash lookup, whatever the number of held reservations);
    - [Submit_dag]: run the injected handler, then commit the scheduled
      reservations to the site calendar;
    - [Explain]: run the injected handler, calendar untouched;
    - [Stats]: snapshot the site's telemetry state (per-kind counts,
      shed causes, queue depth/peak, held reservations, calendar
      breakpoints, last [last] flight-recorder digests), calendar
      untouched.

    An out-of-range [site] answers [Error] (and is counted against no
    site). *)

(** Result of one enveloped request of a {!run} batch. *)
type outcome = {
  id : int;  (** the envelope's id *)
  site : int;
  arrival : int;
  started : int;
      (** simulated time service started ([arrival] when the request was
          shed or failed before service) *)
  response : Response.t;
  wall_ns : int;
      (** wall-clock spent in {!handle} when [run ~measure:true], else 0;
          record-only *)
}

(** Deterministic telemetry time series of a {!run}.

    A sink collects one {!Mp_forensics.Telemetry.sample} per site per
    [every] simulated seconds: per-kind response counts, shed causes,
    queue depth/peak, calendar occupancy and breakpoints, index-visit
    deltas and the sojourn (finish − arrival) histogram of the window.
    Each site's worker writes only its own slot, so collection adds no
    cross-site mutable state: the series is bit-identical for any pool
    size and across a dump/replay pair (pinned in [test_service.ml]).
    Simulated time only — wall-clock never enters a sample. *)
module Stats : sig
  type sink

  val sink : every:int -> unit -> sink
  (** A fresh sink sampling every [every] simulated seconds (window ends
      at [every], [2*every], ...).  Raises [Invalid_argument] when
      [every < 1].  Reusable: each {!run} replaces its contents. *)

  val samples : sink -> Mp_forensics.Telemetry.sample list
  (** The last run's series, sorted by ⟨window end, site⟩.  Sites emit
      windows from the first sampling boundary up to the one containing
      their last simulated activity (max of last arrival and server
      drain); a site with no envelopes emits nothing. *)
end

val run :
  ?pool:Mp_prelude.Pool.t ->
  ?queue_limit:int ->
  ?measure:bool ->
  ?stats:Stats.sink ->
  t ->
  Request.envelope list ->
  outcome list
(** Consume an envelope stream.  Envelopes are grouped per site and each
    site serviced in ⟨arrival, id⟩ order through the simulated FIFO queue
    (see the determinism contract above); with [pool], sites are fanned
    over the pool's workers.  [queue_limit] (default unbounded) sheds an
    arrival as {!Response.Overloaded} when that many admitted requests are
    still queued or in service; an envelope [budget] sheds the request
    when its simulated queue delay would exceed the budget.  Envelopes
    naming an unknown site come back as [Error] outcomes.  Outcomes are
    returned in envelope-id order.  [measure] (default [false]) records
    per-request wall-clock.  [stats] collects the telemetry time series
    of this run.  One batch at a time per engine. *)

val requests : t -> int
(** Requests serviced so far, summed over sites ({!handle} calls; shed
    requests never reach service and are not counted). *)

val granted : t -> site:int -> Mp_platform.Reservation.t list
(** Reservations granted to [Reserve] requests and not yet cancelled,
    sorted by {!Mp_platform.Reservation.compare_by_start}.  A multiset:
    a triple granted twice appears twice until it is cancelled twice. *)

val calendar : t -> site:int -> Mp_platform.Calendar.t
(** The site's current calendar. *)

val n_sites : t -> int

(** The scheduling service's DAG entry points — the {!Mp_service.Engine}
    handlers that know the algorithm registry.

    [Mp_service] sits below this library, so its engine cannot name
    [Ressched] or [Deadline]; it takes an {!Mp_service.Engine.handlers}
    record instead.  This module builds that record from {!Algo}'s
    registry and the forensics renderer, making the service able to
    answer {!Mp_service.Request.Submit_dag} and
    {!Mp_service.Request.Explain}.  Every consumer — [mpres serve],
    the one-shot [mpres schedule|deadline|explain] paths, tests and
    benches — goes through these same entry points.

    {2 Semantics}

    {!submit} mirrors the CLI's routing exactly: a RESSCHED algorithm
    schedules for minimal turn-around and refuses a deadline ([By]/
    [Tightest] answer [Error], as [mpres schedule] refuses [--deadline]);
    a RESSCHEDDL algorithm honors [By k] ([Scheduled]/[Infeasible]) and
    maps both [Tightest] and [No_deadline] to the tightest-deadline
    search, exactly as [mpres deadline] without [--deadline].

    {2 Concurrency}

    No lock: requests on different sites run in parallel, whole-DAG work
    included.  Sites share no mutable state, and the decision journal
    that {!explain} records through belongs to the domain running the
    request ({!Mp_forensics.Journal.record}), so concurrent explains,
    submits and reservation traffic never reach each other's reports. *)

val handlers : ?spec:Speculate.t -> unit -> Mp_service.Engine.handlers
(** The registry-backed handlers: plug into
    {!Mp_service.Engine.create}.  [?spec] lends a pool to each request's
    tightest-deadline search (see {!Speculate}); it must be a pool
    {e distinct} from the one fanning the engine's per-site streams (a
    pool batch is not re-entrant).  Concurrent requests share its busy
    flag, so one search speculates at a time and the others run
    sequentially.  Speculation is output-preserving: responses are
    bit-identical with or without it. *)

val engine :
  ?spec:Speculate.t -> sites:Mp_service.Engine.site_spec array -> unit -> Mp_service.Engine.t
(** [engine ~sites ()] is {!Mp_service.Engine.create} with {!handlers}
    attached — the full service, able to answer every request kind. *)

val submit :
  ?spec:Speculate.t ->
  algo:string ->
  deadline:Mp_service.Request.deadline_spec ->
  q:int ->
  Mp_platform.Calendar.t ->
  Mp_dag.Dag.t ->
  Mp_service.Response.t
(** Answer one [Submit_dag] against the given calendar (see semantics
    above).  Answers [Scheduled], [Infeasible], or [Error]; the caller
    (normally the engine) commits the scheduled reservations. *)

val explain :
  ?spec:Speculate.t ->
  algo:string ->
  deadline:int option ->
  format:string ->
  q:int ->
  Mp_platform.Calendar.t ->
  Mp_dag.Dag.t ->
  Mp_service.Response.t
(** Answer one [Explain]: run the algorithm with the decision journal on
    and render the forensics report — decision story plus calendar
    analytics ([format = "text"]), JSONL journal plus analytics object
    (["json"]), Gantt SVG (["svg"]), or the self-contained HTML report
    (["html"]).  For RESSCHEDDL algorithms, [deadline = None] resolves
    the tightest feasible deadline first (only the final run is
    journaled, keeping the story readable).  Answers [Explained], or
    [Error] on an unknown algorithm/format or an unmeetable deadline.
    The journal is record-only, so the underlying schedule is
    bit-identical to what {!submit} produces
    (pinned by [test_forensics.ml]). *)

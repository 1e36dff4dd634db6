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
    included.  Each request runs on one domain, its tightest-deadline
    search too.  Sites share no mutable state, and the decision journal
    that {!explain} records through belongs to the domain running the
    request ({!Mp_forensics.Journal.record}), so concurrent explains,
    submits and reservation traffic never reach each other's reports. *)

val handlers : unit -> Mp_service.Engine.handlers
(** The registry-backed handlers: plug into
    {!Mp_service.Engine.create}. *)

val engine : sites:Mp_service.Engine.site_spec array -> unit -> Mp_service.Engine.t
(** [engine ~sites ()] is {!Mp_service.Engine.create} with {!handlers}
    attached — the full service, able to answer every request kind. *)

val submit :
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

(** The unified response type of the scheduling service.

    One typed answer vocabulary for every consumer that used to speak its
    own dialect: the trial-and-error scheduler ([Mp_core.Blind], whose
    [Granted | Rejected] pair folds in here), the online competitor
    stream ([Mp_core.Online]), the one-shot CLI paths
    ([mpres schedule|deadline|explain]) and the long-running
    [mpres serve] daemon all receive {!t} values from
    {!Engine.handle}.

    Serialization round-trips through the shared hand-rolled JSON
    ({!Mp_prelude.Json}); {!of_json}[ (]{!to_json}[ r) = Ok r] for every
    response (pinned by a qcheck property in [test_service.ml]). *)

(** One entry of a site's bounded flight-recorder ring: the digest of a
    recently served request (everything except a {!Request.Stats}). *)
type digest = {
  d_id : int;  (** envelope id *)
  d_arrival : int;  (** simulated arrival time *)
  d_started : int;  (** simulated time service started (≥ arrival) *)
  d_outcome : string;  (** {!kind} of the response it received *)
}

(** The payload of a {!Stats} response — one site's live counters at the
    simulated instant the {!Request.Stats} was served.  All fields are
    integers (no floats) so the JSON round-trip is exact and a dumped
    trace replays bit-identically. *)
type stats = {
  requests : int;  (** requests served so far, including this one *)
  counts : (string * int) list;
      (** per-response-kind totals in {!kinds} order, zero counts kept *)
  shed_queue : int;  (** requests shed because the bounded queue was full *)
  shed_budget : int;  (** requests shed because their queue-delay budget ran out *)
  queue_depth : int;  (** in-flight queue depth at service time *)
  queue_peak : int;  (** maximum queue depth seen so far *)
  held : int;  (** point reservations currently held (cancel targets) *)
  breakpoints : int;  (** availability breakpoints in the site's calendar *)
  recent : digest list;  (** flight-recorder tail, oldest first, ≤ [last] entries *)
}

type t =
  | Granted
      (** a {!Request.Reserve} was placed; the site's live calendar is
          updated *)
  | Rejected of int option
      (** insufficient availability for a {!Request.Reserve}; carries the
          earliest start time at or after the requested one at which the
          request would currently succeed, if any *)
  | Available of int option
      (** answer to a {!Request.Probe} feasibility query: earliest start
          at or after the requested one that currently fits ([Some start]
          when the requested start itself fits), or [None] *)
  | Scheduled of { schedule : Mp_cpa.Schedule.t; deadline : int option }
      (** a {!Request.Submit_dag} was placed and its reservations
          committed to the site's calendar; [deadline] is the resolved
          deadline for RESSCHEDDL algorithms ([Some k] — the tightest one
          when the request asked for [Tightest]) and [None] for plain
          RESSCHED *)
  | Infeasible of { algo : string; deadline : int option }
      (** a deadline {!Request.Submit_dag} cannot be met: [Some k] when a
          fixed deadline [k] was requested, [None] when even the
          tightest-deadline search found nothing *)
  | Cancelled  (** a {!Request.Cancel} released its reservation *)
  | Explained of string
      (** the rendered forensics report of a {!Request.Explain} *)
  | Overloaded
      (** admission control shed the request: the site's bounded
          in-flight queue was full, or the request's queue-delay budget
          was exceeded before service could start *)
  | Stats of stats
      (** answer to a {!Request.Stats} introspection request *)
  | Error of string
      (** malformed or unserviceable request (unknown algorithm, unknown
          site, cancel of a reservation that is not held, ...) *)

val kind : t -> string
(** Short lowercase tag (["granted"], ["rejected"], ...) — the JSON
    discriminator, also used for response-count summaries. *)

val kinds : string list
(** Every kind tag in canonical order (the order {!stats.counts} is
    reported in); [List.nth kinds (kind_index r) = kind r]. *)

val n_kinds : int

val kind_index : t -> int
(** Position of [kind r] in {!kinds} — the engine's per-site count
    arrays are indexed by it. *)

val to_json : t -> Mp_prelude.Json.t
val to_string : t -> string

val of_json : Mp_prelude.Json.t -> (t, string) result
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit

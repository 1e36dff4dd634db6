(** The unified request type of the scheduling service.

    The paper assumes a frozen calendar and a one-shot scheduler; its own
    discussion (Sections 3.2.2 and 7) — and Moise et al.'s reservation
    negotiation protocol — describe the deployment shape this module
    types: a stream of request/grant/reject interactions against a live
    calendar.  Every consumer builds {!t} values: the [Mp_core.Blind]
    scheduler emits {!Reserve}/{!Cancel}, the [Mp_core.Online]
    competitor stream is a [t list array], the one-shot CLI paths submit
    one {!Submit_dag} or {!Explain}, and [mpres serve] consumes a whole
    {!envelope} stream.

    Serialization round-trips through {!Mp_prelude.Json} (including the
    embedded DAG), so a request trace can be dumped, shipped, and
    replayed bit-identically. *)

(** Deadline demanded by a {!Submit_dag}. *)
type deadline_spec =
  | No_deadline  (** RESSCHED: minimize turn-around, no constraint *)
  | By of int  (** RESSCHEDDL: finish by the given time *)
  | Tightest
      (** RESSCHEDDL: search for the tightest feasible deadline
          ([Mp_core.Deadline.tightest]) *)

type t =
  | Submit_dag of { dag : Mp_dag.Dag.t; algo : string; deadline : deadline_spec }
      (** schedule a whole application DAG with the named algorithm and
          commit its reservations to the site's live calendar *)
  | Reserve of { start : int; dur : int; procs : int }
      (** ask for [procs] processors over [\[start, start + dur)] —
          the trial-and-error request, granted or rejected with the
          earliest feasible alternative start *)
  | Probe of { start : int; dur : int; procs : int }
      (** feasibility query: where could this reservation start, at or
          after [start]?  Never changes the calendar. *)
  | Cancel of { start : int; finish : int; procs : int }
      (** release a previously granted reservation *)
  | Explain of { dag : Mp_dag.Dag.t; algo : string; deadline : int option; format : string }
      (** run the algorithm with the decision journal on and return the
          rendered forensics report ([format] is [text|json|svg|html]);
          [deadline = None] resolves the tightest deadline for
          RESSCHEDDL algorithms.  Never changes the calendar. *)
  | Stats of { last : int }
      (** in-band introspection: a {!Response.Stats} snapshot of the
          site's per-kind response counts, shed causes, queue depth and
          calendar occupancy, plus the last [min last K] outcomes from
          the site's bounded flight-recorder ring ([last = 0] for none).
          Never changes the calendar; counts as one simulated second of
          service like the other point operations. *)

val kind : t -> string
(** Short lowercase tag (["submit_dag"], ["reserve"], ...) — the JSON
    discriminator. *)

val cost : t -> int
(** Deterministic service-time model used by the admission-control queue
    simulation in {!Engine.run}: 1 simulated second for the calendar
    point operations ({!Reserve}, {!Probe}, {!Cancel}), one per task for
    the whole-DAG operations ({!Submit_dag}, {!Explain}).  A model, not a
    measurement — it only has to be deterministic so that replaying a
    trace sheds exactly the same requests at any [--jobs] value. *)

(** One request of a service stream: which site it targets, when it
    arrives (simulated seconds), and how long it is willing to wait. *)
type envelope = {
  id : int;  (** unique, increasing — responses merge back in id order *)
  site : int;
  arrival : int;  (** simulated arrival time, non-decreasing per stream *)
  budget : int option;
      (** per-request deadline budget: maximum simulated queue delay
          tolerated before the request is shed as
          {!Response.Overloaded}; [None] waits forever *)
  payload : t;
}

val to_json : t -> Mp_prelude.Json.t
val of_json : Mp_prelude.Json.t -> (t, string) result
(** A DAG travels as
    [{"tasks":[\[seq,alpha\],...],"edges":[\[pred,succ\],...]}]: task ids
    are implicit array positions, and floats print exactly
    ({!Mp_prelude.Json.float_str}).  Every integer a request carries
    (times, sizes, DAG edges, deadlines, and the envelope's [id], [site],
    [arrival] and [budget]) must be a whole JSON number in
    [[-2^62, 2^62)] ({!Mp_prelude.Json.to_int}); anything else is an
    [Error], never truncated.  An optional integer ([budget], an explain
    [deadline]) may also be [null] or absent. *)

val to_string : t -> string
val of_string : string -> (t, string) result

val envelope_to_string : envelope -> string
(** One line of a request-trace JSONL dump ([mpres serve --dump]). *)

val envelope_of_string : string -> (envelope, string) result


(** Typed schedule-decision journal — the semantic layer above the
    {!Mp_obs} perf probes.

    Where [Mp_obs] answers "where does wall-clock go?", the journal
    answers "why did the scheduler pick {e that} ⟨processors, start⟩
    pair?": per placed task it records every candidate pair evaluated,
    the prune and early-cut reasons (Amdahl plateau, bound cap,
    reference-start relaxation with the λ slack actually applied), and
    the winning pair, as emitted by the probe points in [Ressched],
    [Deadline], [Online], [Allocation] and [Mapping].

    {2 Determinism and overhead contract}

    Identical to [Mp_obs]: probes {e record}; they never return data to
    the instrumented code, so enabling the journal cannot change any
    scheduling decision ([test_forensics.ml] pins journal-on = journal-off
    schedules).  When {!enabled} is [false] (the default) every probe
    site reduces to a load and a branch with no allocation — call sites
    guard any argument construction behind [if Journal.enabled () then].

    {2 Concurrency}

    The switch, the entry buffer and the open placement live in the
    calling domain's [Domain.DLS] slot, so {!record} captures only its
    own domain's entries and journaled runs on different domains overlap
    freely.  A journaled run must stay on one domain: nothing inside a
    schedule or a tightest-deadline search fans out. *)

val enabled : unit -> bool
(** Whether the journal is on for the calling domain; [false] outside
    {!record}. *)

(** Which placement rule produced an entry. *)
type kind =
  | Forward  (** RESSCHED: earliest completion at or after the ready time *)
  | Backward  (** RESSCHEDDL aggressive / fallback: latest start before the task deadline *)
  | Conservative
      (** RESSCHEDDL resource-conservative: fewest processors clearing the
          λ-relaxed CPA reference threshold *)
  | Online_forward  (** {!Forward} under mid-scheduling competitor arrivals *)

(** Why a candidate ⟨processors, start⟩ pair was (or was not) retained. *)
type verdict =
  | Leading  (** better than every candidate seen so far (the last [Leading] wins) *)
  | Beaten  (** a fit exists but an earlier candidate dominates it *)
  | No_fit  (** the calendar has no feasible window for this pair *)
  | Early_cut
      (** scan stopped: with candidates ordered by ascending duration, no
          remaining pair can beat the incumbent (the output-preserving
          early-cut optimization) *)
  | Window_closed  (** conservative: threshold + duration already exceeds the deadline *)
  | Misses_deadline  (** conservative: earliest fit past the threshold finishes too late *)

type cand = {
  procs : int;
  dur : int;  (** rounded Amdahl execution time on [procs] processors *)
  fit : int option;  (** start returned by the calendar query, if any *)
  verdict : verdict;
}

type placement = {
  kind : kind;
  task : int;  (** task id *)
  anchor : int;  (** ready time (forward) or task deadline (backward/conservative) *)
  bound : int;  (** allocation bound: candidates range over [\[1, bound\]] *)
  plateau_pruned : int;
      (** processor counts in [\[1, bound\]] skipped as Amdahl-plateau
          dominated before any calendar query *)
  reference : int option;  (** conservative: CPA reference start [S_i] *)
  threshold : int option;
      (** conservative: [S_i + λ(dl_i − S_i)] — [threshold − reference] is
          the λ slack actually applied *)
  lambda : float option;
  cands : cand list;  (** in evaluation order *)
  won : (int * int * int) option;  (** winning (procs, start, finish); [None] = placement failed *)
}

type entry =
  | Placement of placement
  | Cpa_alloc of { p : int; iterations : int; n_tasks : int; total_alloc : int }
      (** the CPA allocation behind one of bounds, bottom-level weights or
          reference schedules; one per use, also when a scheduler reuses
          one allocation for several of them *)
  | Cpa_map of { p : int; n_tasks : int; makespan : int }
      (** one CPA mapping phase (conservative reference schedules) *)
  | Grant of { start : int; finish : int; procs : int; granted : bool }
      (** online: a competing reservation arriving mid-schedule *)

val record : (unit -> 'a) -> 'a * entry list
(** [record f] turns the journal on for the calling domain while [f]
    runs and returns [f]'s result with the entries recorded meanwhile,
    in recording order.  The previous state is restored on every exit,
    exceptional ones included, so calls nest: an inner [record] returns
    its own entries, and the enclosing capture keeps them too. *)

val placements : entry list -> placement list
(** The [Placement] entries, in order. *)

val won_slot : entry list -> task:int -> (int * int * int) option
(** Winning (procs, start, finish) of the {e last} successful placement
    recorded for [task] — with fallbacks (conservative → backward) the
    last word is the one that made it into the schedule. *)

(** {2 Probe points}

    Called by the schedulers.  Every function is a no-op burning a load
    and a branch when {!enabled} is false; call sites must guard any
    argument computation behind [if Journal.enabled ()] themselves. *)

val begin_placement : kind -> task:int -> anchor:int -> bound:int -> evaluated:int -> unit
(** Open a placement record; [evaluated] is the number of candidate
    processor counts that survived Amdahl-plateau pruning
    ([plateau_pruned] is [bound - evaluated]). *)

val note_reference : reference:int -> threshold:int -> lambda:float -> unit
(** Attach the conservative reference data to the open placement. *)

val cand : procs:int -> dur:int -> fit:int option -> verdict -> unit
(** Record one evaluated candidate on the open placement. *)

val end_placement : procs:int -> start:int -> finish:int -> unit
(** Close the open placement with its winning pair. *)

val end_placement_failed : unit -> unit
(** Close the open placement as failed (deadline algorithms only). *)

val cpa_alloc : p:int -> iterations:int -> n_tasks:int -> total_alloc:int -> unit
val cpa_map : p:int -> n_tasks:int -> makespan:int -> unit
val grant : start:int -> finish:int -> procs:int -> granted:bool -> unit

(** {2 Export} *)

val to_jsonl : entry list -> string
(** One JSON object per line (the [mpres explain --format json] output):
    [{"event":"placement",...}], [{"event":"cpa_alloc",...}],
    [{"event":"cpa_map",...}], [{"event":"grant",...}]. *)

val story : entry list -> string
(** Human-readable per-decision narrative (the [mpres explain] text
    format): one block per placement with its candidate-by-candidate
    verdicts, plus one line per CPA phase and online grant. *)

(** The allocation-bounding methods of Sections 4.2 and 4.3.2.

    When picking a task's ⟨processors, start time⟩ pair, the number of
    processors considered ranges over [\[1, bound(task)\]]:

    - [BD_ALL] — bound is the cluster size [p];
    - [BD_HALF] — arbitrary bound of [p / 2] (a strawman showing that
      application-oblivious bounding is not enough);
    - [BD_CPA] — per-task bound equal to the CPA allocation computed with
      [p] processors;
    - [BD_CPAR] — per-task bound equal to the CPA allocation computed with
      [q] (historical average availability) processors.

    The paper's result (Tables 4 and 5): BD_CPAR is best on both
    turn-around time and CPU-hours, BD_CPA a close runner-up, BD_ALL and
    BD_HALF far behind. *)

type method_ =
  | BD_ONE
      (** extension: rigid single-processor tasks — disables data
          parallelism entirely, quantifying what moldability buys *)
  | BD_ALL
  | BD_HALF
  | BD_CPA
  | BD_CPAR
  | BD_ICASLB
      (** extension (paper §7's first suggestion): bound by the
          allocations the one-step iCASLB algorithm converges to on [p]
          processors *)
  | BD_ICASLBR
      (** same, computed for the historical average availability [q] *)

val all : method_ list
(** The paper's four methods (BD_ALL, BD_HALF, BD_CPA, BD_CPAR). *)

val extended : method_ list
(** {!all} plus the iCASLB-based extensions. *)

val name : method_ -> string

val bounds : cpa:(int -> int array) -> method_ -> Env.t -> Mp_dag.Dag.t -> int array
(** Per-task allocation upper bounds, each in [\[1, p\]].  [cpa] is as
    for {!Bottom_level.weights}; the CPA-based bounds return its array
    itself, which callers must not mutate. *)

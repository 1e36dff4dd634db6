(** A moldable (data-parallel) task.

    Following the paper (Section 3.1), a task is fully specified by its
    sequential execution time [seq] (in seconds) and its non-parallelizable
    fraction [alpha]; its execution time on [np] processors follows
    Amdahl's law:

    {[ T(np) = seq * (alpha + (1 - alpha) / np) ]}

    rounded up to a whole second when placed in the calendar. *)

type t = { id : int; seq : float; alpha : float }

val make : id:int -> seq:float -> alpha:float -> t
(** Raises [Invalid_argument] unless [0 < seq < 2^53] and
    [0 <= alpha <= 1].  NaN and infinite values are rejected with a
    message of their own. *)

val exec_time : t -> int -> int
(** [exec_time t np] is the execution time in whole seconds on [np >= 1]
    processors (at least 1 s).  Non-increasing in [np]. *)

val exec_time_f : t -> int -> float
(** Un-rounded Amdahl execution time, used for bottom-level weights. *)

type candidates = { bound : int; nps : int array; durs : int array }
(** A per-⟨task, [bound]⟩ candidate table: [nps] is the ascending array of
    processor counts worth trying (see {!alloc_candidates}) and
    [durs.(i) = exec_time t nps.(i)].  Treat both arrays as immutable —
    they are shared across every placement of the schedule that built
    them. *)

val candidates : t -> max_np:int -> candidates
(** [candidates t ~max_np] materializes the {!alloc_candidates} scan (and
    the rounded durations) once, so schedulers probing the same task many
    times — λ-sweeps, [tightest] binary searches, per-reservation-set
    reruns — pay for the Amdahl evaluations a single time.  Thread the
    result explicitly through the scheduling pass; there is deliberately
    no global memo table, keeping the scan domain-safe under
    [Mp_prelude.Pool]. *)

val alloc_candidates : t -> max_np:int -> int list
(** [alloc_candidates t ~max_np] is the ascending list of processor counts
    worth trying when placing this task: 1, plus every [np <= max_np]
    whose (rounded) execution time is strictly below every smaller
    count's.  Counts inside an Amdahl plateau are dominated by the
    plateau's first count — same duration, weaker availability
    requirement — so skipping them provably never changes which
    ⟨processors, start⟩ pair any of the schedulers picks. *)

val work : t -> int -> int
(** [np * exec_time t np]: CPU-seconds consumed on [np] processors.
    Non-decreasing in [np] (Amdahl's diminishing returns). *)

val speedup : t -> int -> float
(** [exec_time_f t 1 / exec_time_f t np]. *)

val pp : Format.formatter -> t -> unit

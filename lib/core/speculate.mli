(** Placeholder for the deleted intra-schedule speculation.

    {!Deadline.tightest} is a sequential search; nothing lends a pool
    into a single schedule any more.  This module keeps only the names
    the repository benchmark's deadline-solve workload and its
    [timed_algos] wrapper still compile against: they build a [t] with
    {!create} and pass it as the ignored [?spec] of
    {!Deadline.tightest}, {!Algo.deadline.prepare} and
    {!Algo.ressched.run}.  The next benchmark change drops those calls;
    the change after it deletes this module and the three [?spec]
    parameters. *)

type t

val create : Mp_prelude.Pool.t -> t
(** Ignores the pool; the caller keeps ownership of it. *)

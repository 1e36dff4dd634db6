(** Fixed pool of OCaml 5 domains for deterministic fan-out of independent
    work items.

    The pool exists so the simulation layer can spread embarrassingly
    parallel ⟨instance, algorithm⟩ cells over the machine's cores while
    keeping results {e bit-identical} to sequential execution.  The
    executor is deterministic work stealing, and the determinism contract
    is purely structural (which worker runs an item is {e not} fixed):

    - the item index space is split into [jobs] contiguous ranges, each
      drained through a forward-only atomic claim cursor; a worker that
      exhausts its own range {e steals} from the others (fixed victim
      order, same claim protocol), so which worker runs an item can vary
      with timing — but each item runs exactly once;
    - every item writes its result (or its exception) into its own
      pre-allocated slot, and {!map} merges the slots in item order, so
      the merged output is exactly what sequential [List.map] would
      produce — {e merge order, not execution order, defines the
      result};
    - an exception raised by an item is re-raised in the calling domain,
      and when several items fail, the one with the {e smallest index}
      wins — again matching sequential behaviour;
    - the claim chunk size is a pure function of (n, jobs), never of
      wall-clock.

    Work items must therefore be pure with respect to shared mutable
    state (each simulation instance owns its own SplitMix64 RNG state;
    shared caches such as [Mp_sim.Logcache] are mutex-protected and
    deterministic per key).  Stealing moves {e where} an item runs, so
    items must also not depend on which domain they execute on —
    domain-local state is fine for record-only probes ({!Mp_obs}), never
    for results.

    A pool with [jobs = 1] spawns no domains and runs every batch in the
    calling domain, making [~jobs:1] a true sequential reference.
    Batches are executed one at a time per pool ([map] is not
    re-entrant); the calling domain participates as the last worker, so
    [jobs] counts it. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (at least 1): leave one core
    for the caller's OS noise.  This is the default for every [?jobs]
    argument in the library. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] workers ([jobs - 1] new domains plus the
    calling domain).  Default {!default_jobs}.  Raises
    [Invalid_argument] if [jobs < 1].  Call {!shutdown} (or use
    {!with_pool}) when done — idle workers block a domain each. *)

val jobs : t -> int
(** Worker count (including the calling domain). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], fanned over the pool's workers.
    Result order — and on failure, which exception propagates — is
    identical to the sequential run (see the determinism contract
    above).  Raises [Invalid_argument "Pool.map: pool is shut down"]
    after {!shutdown} and [Invalid_argument "Pool.map: concurrent map on
    the same pool"] when a batch is already in flight (including a
    re-entrant [map] from inside a work item) — uniformly for every
    [jobs] value, including [jobs = 1] and empty input. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Array counterpart of {!map}. *)

val first_some : t -> (unit -> 'a option) array -> (int * 'a) option
(** Speculative wave: run every thunk on the pool, then select exactly
    what the sequential scan [thunks.(0) (); thunks.(1) (); …] stopping
    at the first [Some] would have selected — the smallest index whose
    thunk returned [Some v] (as [(index, v)]), or [None] when all
    returned [None].  An exception raised by thunk [j] propagates iff no
    thunk [i < j] returned [Some] — again matching the sequential scan,
    which would not have evaluated [j].  The one observable difference
    from that scan is that thunks past the winner {e do run} (their side
    effects — probe counters, allocations — happen), so thunks must be
    pure up to record-only instrumentation.  Same batching rules as
    {!map}: not re-entrant, raises after {!shutdown}. *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent; subsequent {!map} calls
    raise. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down on
    exit (normal or exceptional). *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [with_pool ~jobs (fun p -> map p f xs)]. *)

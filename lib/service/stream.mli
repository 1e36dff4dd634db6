(** Seeded request-stream generator for soak tests, benchmarks, and
    replay.

    All randomness flows through the caller's {!Mp_prelude.Rng}, so a
    ⟨seed, parameters⟩ pair names one exact {!Request.envelope} stream
    forever: [mpres serve --seed S -n N] and the "Service" bench section
    replay the same streams bit-identically, and the [--jobs] invariance
    property in [test_service.ml] feeds one generated stream through
    {!Engine.run} at several pool sizes. *)

(** Relative weights of the five request kinds in the generated mix.
    Weights are nonnegative and must not all be zero. *)
type mix = { reserve : int; probe : int; cancel : int; submit : int; explain : int }

val generate :
  Mp_prelude.Rng.t ->
  ?mix:mix ->
  ?horizon:int ->
  ?budget:int ->
  ?algos:string list ->
  sites:int ->
  procs:int ->
  n:int ->
  unit ->
  Request.envelope list
(** [generate rng ~sites ~procs ~n ()] draws [n] envelopes with ids
    [0 .. n-1], uniformly-drawn sites, and non-decreasing arrivals
    (mean gap a few seconds).  The default [mix] is
    reservation-protocol heavy, with a trickle of whole-DAG work:
    [{ reserve = 50; probe = 25; cancel = 15; submit = 8; explain = 2 }].

    - [Reserve]/[Probe] requests draw a start within [horizon] (default
      86 400 s) of the arrival, a duration of minutes-to-an-hour, and
      [1 .. procs] processors; the generator remembers each site's issued
      [Reserve] triples so that
    - [Cancel] requests usually name one of them (cancels of never-granted
      triples exercise the error path, as in real streams);
    - [Submit_dag]/[Explain] requests carry a small {!Mp_dag.Dag_gen} DAG
      (6–16 tasks) and an algorithm drawn from [algos] (default
      [["cpa"]] — override with registry names to exercise real
      schedulers); submit deadlines mix [No_deadline], [By], and
      [Tightest].

    When [budget] is given, each envelope carries [Some budget] with
    probability ½ (else [None]), so admission-control shedding and
    patient requests are both exercised.  Raises [Invalid_argument] on
    [n < 0], [sites < 1], [procs < 1], an all-zero [mix], or an empty
    [algos]. *)

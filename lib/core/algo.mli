(** Registry of the paper's named algorithms, for CLIs, experiments, and
    benchmarks. *)

type ressched = {
  name : string;
  run : ?spec:Speculate.t -> Env.t -> Mp_dag.Dag.t -> Mp_cpa.Schedule.t;
      (** [?spec] is ignored.  It stays until the repository benchmark,
          which builds this record with an optional [spec] argument,
          stops passing it; the change after that deletes it (see
          {!Speculate}). *)
}

type deadline = {
  name : string;
  prepare : ?spec:Speculate.t -> Env.t -> Mp_dag.Dag.t -> deadline:int -> Mp_cpa.Schedule.t option;
      (** [prepare env dag ~deadline] runs the algorithm once; partial
          application at [Env.t -> Dag.t] precomputes the
          deadline-independent data, so deadline sweeps reuse one
          closure (see {!Deadline.aggressive}).  A conservative or
          hybrid closure fills a memo lazily, so call it from one domain
          at a time.  [?spec] is ignored, as for [ressched.run]. *)
}

val ressched_main : ressched list
(** The four Table 4/5 rows: BD_ALL, BD_HALF, BD_CPA, BD_CPAR, all with
    BL_CPAR bottom levels. *)

val ressched_all : ressched list
(** All 16 BL_x_BD_y combinations. *)

val ressched_find : string -> ressched option

val deadline_main : deadline list
(** The five Table 6 rows: DL_BD_ALL, DL_BD_CPA, DL_BD_CPAR, DL_RC_CPA,
    DL_RC_CPAR. *)

val deadline_hybrid : deadline list
(** The four Table 7 rows: DL_BD_CPA, DL_RC_CPAR, DL_RC_CPAR-λ,
    DL_RCBD_CPAR-λ. *)

val deadline_all : deadline list
(** Union of the above (each algorithm once). *)

val deadline_find : string -> deadline option

val find : string -> [ `Ressched of ressched | `Deadline of deadline ] option
(** Case-insensitive lookup across {e both} registries — the single entry
    point CLIs should dispatch on, so no caller maintains its own
    name→algorithm table. *)

val all_names : string list
(** Every registered algorithm name, RESSCHED first then RESSCHEDDL, each
    once, in registry order — the listing to print in [--help] and
    unknown-name error messages. *)

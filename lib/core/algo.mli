(** Registry of the paper's named algorithms, for CLIs, experiments, and
    benchmarks. *)

type ressched = {
  name : string;
  run : ?spec:Speculate.t -> Env.t -> Mp_dag.Dag.t -> Mp_cpa.Schedule.t;
      (** [?spec] is ignored: RESSCHED never speculates.  The parameter
          stays only for callers that build this record themselves with
          an optional [spec] argument. *)
}

type deadline = {
  name : string;
  run : Env.t -> Mp_dag.Dag.t -> deadline:int -> Mp_cpa.Schedule.t option;
  prepare : ?spec:Speculate.t -> Env.t -> Mp_dag.Dag.t -> deadline:int -> Mp_cpa.Schedule.t option;
      (** partial application at [Env.t -> Dag.t] precomputes the
          deadline-independent data; use for deadline sweeps (see
          {!Deadline.aggressive_prepared}).  [?spec] warms the closure's
          memo so that a {!Deadline.tightest} search given the same
          [spec] may call it from several domains at once; it never
          changes a result. *)
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

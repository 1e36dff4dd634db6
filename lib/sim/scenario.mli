(** Enumeration of the paper's experimental scenarios (Section 4.3.1).

    An experimental scenario is an application specification (one of the 40
    rows derived from Table 1 by sweeping one parameter) combined with a
    reservation-schedule specification (a log, a tagging fraction [phi],
    and a reshaping method: 4 × 3 × 3 = 36), for 1 440 scenarios total.
    Each scenario is then instantiated with random DAGs and random
    reservation-schedule draws. *)

type app_spec = { label : string; params : Mp_dag.Dag_gen.params }

type res_spec = {
  log : Mp_workload.Log_model.preset;
  phi : float;
  method_ : Mp_workload.Reservation_gen.method_;
}

val app_specs : app_spec list
(** The 40 application specifications (5 + 4 + 9 + 9 + 9 + 4), labelled
    e.g. ["n=25"], ["width=0.3"].  The default configuration appears once
    per swept parameter, as in the paper. *)

val phis : float list
(** Tagging fractions: 0.1, 0.2, 0.5. *)

val res_specs : res_spec list
(** The 36 synthetic reservation-schedule specifications. *)

val res_label : res_spec -> string
(** E.g. ["SDSC_BLUE/phi=0.2/expo"]. *)

val sample_app_specs : int -> app_spec list
(** [sample_app_specs k] picks an evenly spread subset of [k] application
    specs (deterministic), used by reduced-scale benchmark runs.  The
    default configuration is always included. *)

val sample_res_specs : int -> res_spec list
(** Same, for reservation specs. *)

(** The four bottom-level computation methods of Section 4.2.

    Bottom levels order the tasks for scheduling; they require a weight
    (execution time) per task, which in turn requires choosing an
    allocation.  The paper's options:

    - [BL_1] — every task weighted by its 1-processor execution time;
    - [BL_ALL] — every task weighted by its [p]-processor execution time;
    - [BL_CPA] — weights from CPA allocations computed for [p] processors;
    - [BL_CPAR] — weights from CPA allocations computed for [q], the
      historical average number of available processors.

    The paper finds BL_CPAR best (Section 4.3.1), marginally ahead of
    BL_CPA, and uses it exclusively afterwards. *)

type method_ = BL_1 | BL_ALL | BL_CPA | BL_CPAR

val all : method_ list
val name : method_ -> string

val weights : cpa:(int -> int array) -> method_ -> Env.t -> Mp_dag.Dag.t -> float array
(** Per-task execution-time weights under the method's allocation.
    [cpa p] is the DAG's CPA allocation for [p] processors: pass the
    {!Mp_cpa.Allocation.per_procs} table the bounds use too, so the
    allocation runs once. *)

val order : cpa:(int -> int array) -> method_ -> Env.t -> Mp_dag.Dag.t -> int array
(** Tasks by decreasing bottom level — the RESSCHED scheduling order, and
    (reversed) the RESSCHEDDL one.  A valid topological order. *)

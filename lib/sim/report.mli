(** Plain-text table rendering for experiment output, in the style of the
    paper's tables. *)

val render : title:string -> header:string list -> rows:string list list -> string
(** Fixed-width table with a title line and a header rule.  Column widths
    fit the longest cell. *)

val f1 : float -> string
(** One decimal place ("12.3"); infinity prints as "inf". *)

val f2 : float -> string
(** Two decimal places. *)

val f3 : float -> string
(** Three decimal places. *)

val summary_rows : Metrics.row list -> Metrics.row list -> string list list
(** Merge two metric summaries (e.g. turn-around and CPU-hours) sharing the
    same algorithm order into rows
    [algo; deg1; wins1; deg2; wins2]. *)

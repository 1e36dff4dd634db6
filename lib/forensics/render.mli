(** Schedule renderers: text and SVG Gantt charts overlaid on the
    reservation calendar, availability-profile SVG, and the HTML report.

    Renderers are independent of the scheduler libraries: callers hand
    over plain {!slot}s ([Mp_cpa.Schedule.render_slots] converts a
    schedule),
    so this library can sit below [mp_cpa] and receive journal probes
    from it.  All outputs are self-contained documents. *)

type slot = { label : string; start : int; finish : int; procs : int }

val gantt_ascii : base:Mp_platform.Calendar.t -> slots:slot list -> string
(** Text Gantt chart over the same placement as {!gantt_svg}: one row per
    processor (at most 40; larger clusters are down-sampled), 100 time
    columns covering the busy span.  Slots print as letters in start
    order (cycling a-z, A-Z), competing reservations as ['#'], idle as
    ['.']. *)

val gantt_svg : base:Mp_platform.Calendar.t -> slots:slot list -> string
(** SVG Gantt chart, 960 px wide: the schedule's slots (colored,
    first-fit processor rows) overlaid on the base calendar's competing
    reservations (grey) up to an hour past the last slot, with an
    availability-profile strip along the top.  Rows are at most 10 px,
    shrunk so large clusters stay under ~720 px tall.  Well-formed for
    edge cases: empty slot list, single slot, fully reserved calendar. *)

val profile_svg : Mp_platform.Calendar.t -> from_:int -> until:int -> string
(** Availability step function over the window as a filled 960 x 240 px
    SVG area chart.  Requires [from_ < until]. *)

val html :
  title:string -> gantt:string -> profile:string -> analytics:string -> story:string -> string
(** Self-contained HTML page embedding the two SVGs plus the analytics
    report and the decision story as preformatted text (the
    [mpres explain --format html] output). *)

(** Summary statistics used throughout the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty list. *)

val variance : float list -> float
(** Unbiased sample variance (0 for lists of length < 2). *)

val stddev : float list -> float
(** Square root of {!variance}. *)

val cv : float list -> float
(** Coefficient of variation, [stddev / |mean|].  0 when the mean is 0. *)

val median : float list -> float
(** Median (average of middle pair for even lengths). *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation. *)

val minimum : float list -> float
val maximum : float list -> float

val correlation : float list -> float list -> float
(** Pearson correlation of two equal-length series.  0 when either series
    is constant. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  cv : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary
(** One-pass summary of a non-empty list. *)


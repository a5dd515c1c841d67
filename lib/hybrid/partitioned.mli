(** The hybrid histogram/kernel estimator (Section 3.3) — the paper's novel
    contribution.

    Change points of the pilot density partition the domain into bins;
    under-populated adjacent bins are merged; inside each bin an independent
    kernel estimator runs with its own bandwidth (each bin's sample is
    closer to smooth, which is exactly where kernel estimators excel), using
    boundary kernels at the bin borders.  A bin whose sample is too small or
    degenerate (all duplicates) falls back to the uniform-within-bin
    histogram rule. *)

type bandwidth_rule =
  | Normal_scale_rule
  | Plug_in_rule of int  (** number of plug-in iterations *)

type config = {
  change_points : Change_point.config;
  min_bin_count : int;
      (** adjacent bins with fewer samples are merged (default 100) *)
  bandwidth_rule : bandwidth_rule;  (** per-bin rule (default normal scale) *)
  kernel : Kernels.Kernel.t;  (** default Epanechnikov *)
}

val default_config : config
(** [Change_point.default_config] detection, 100-sample merge threshold,
    normal-scale per-bin bandwidths, Epanechnikov kernel.  (The
    paper-tuned serving defaults — 16 change points, per-bin DPI1 — live
    in [Selest.Estimator.hybrid_defaults], which overrides this record.) *)

type t

val build : ?config:config -> domain:float * float -> float array -> t
(** [build ~domain samples] detects change points, merges small bins and
    fits the per-bin kernel estimators.
    @raise Invalid_argument on an empty sample or empty domain. *)

val partition : t -> float array
(** The bin edges after merging, [lo] and [hi] included. *)

val selectivity : t -> a:float -> b:float -> float
(** Weighted sum of per-bin kernel selectivities, clamped to [[0, 1]]. *)

val density : t -> float -> float
(** Piecewise density: the owning bin's kernel density scaled by the bin's
    sample fraction; 0 outside the domain. *)

val bin_count : t -> int
(** Number of bins after merging. *)


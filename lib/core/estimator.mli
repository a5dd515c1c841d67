(** Unified selectivity-estimator interface.

    This is the public face of the library: a declarative {!spec} names any
    estimator configuration from the paper (plus the documented
    extensions), {!build} turns a spec and a sample into a queryable
    estimator, and every estimator answers {!selectivity} for range queries
    [Q(a,b)].

    The specs cover the full cast of the paper's experiments: pure
    sampling, the uniform (one-bin) assumption, equi-width / equi-depth /
    max-diff histograms, average shifted histograms, kernel estimators with
    the three boundary policies, and the hybrid estimator. *)

type bins_rule =
  | Fixed_bins of int
  | Normal_scale_bins  (** formula (8) bin count *)
  | Plug_in_bins of int  (** direct plug-in with the given iterations *)

type bandwidth_rule =
  | Fixed_bandwidth of float
  | Normal_scale_bandwidth  (** the 2.345 s n^(-1/5) rule *)
  | Plug_in_bandwidth of int  (** h-DPI with the given iterations *)
  | Lscv_bandwidth  (** least-squares cross-validation (extension) *)

type spec =
  | Sampling
  | Uniform_assumption
  | Equi_width of bins_rule
  | Equi_depth of { bins : int }
  | Max_diff of { bins : int }
  | Ash of { bins : bins_rule; shifts : int }
  | Kernel of {
      kernel : Kernels.Kernel.t;
      boundary : Kde.Estimator.boundary_policy;
      bandwidth : bandwidth_rule;
    }
  | Hybrid_spec of {
      bandwidth : bandwidth_rule;
          (** per-bin rule; [Fixed_bandwidth] and [Lscv_bandwidth] fall back
              to the normal-scale rule inside bins *)
      min_bin_count : int;
      max_change_points : int;
    }
  | Frequency_polygon of bins_rule
      (** extension: piecewise-linear interpolated equi-width histogram
          (Scott), removing the jump points at histogram cost *)
  | V_optimal of { bins : int }
      (** extension: variance-minimizing bin boundaries (Jagadish et al.
          [7]) via dynamic programming on a micro-grid *)
  | Wavelet_spec of { coefficients : int }
      (** extension: Haar-wavelet synopsis (Matias, Vitter & Wang [4],
          cited in the paper's related work) keeping the given number of
          coefficients *)

val kernel_defaults : spec
(** Epanechnikov, boundary kernels, 2-step plug-in — the paper's "Kernel"
    contender in Figure 12. *)

val hybrid_defaults : spec
(** Boundary kernels with per-bin one-step plug-in bandwidths and a
    16-change-point budget — the paper's "Hybrid" contender in Figure 12. *)

val spec_name : spec -> string
(** Short display name, e.g. ["EWH(NS)"], ["Kernel(bk,DPI2)"]. *)

val spec_of_string : string -> (spec, string) result
(** Parse a compact spec syntax (used by the CLI):

    - ["sampling"], ["uniform"]
    - ["ewh"] (normal-scale bins), ["ewh:40"], ["ewh:dpi2"]
    - ["edh:40"], ["mdh:40"] (bins default to 40 when omitted)
    - ["ash"], ["ash:80,10"] (bins[,shifts]; NS bins and 10 shifts default)
    - ["kernel"] (Epanechnikov, boundary kernels, DPI2); options after [:]
      separated by commas: a bandwidth rule ([ns], [dpiN], [lscv],
      [h=<float>]), a boundary policy ([none], [reflection], [bk]) and a
      kernel name ([gaussian], [biweight], ...), in any order
    - ["hybrid"] (defaults), ["hybrid:ns"], ["hybrid:dpi2"]
    - ["fp"], ["fp:40"] (frequency polygon); ["voh"], ["voh:30"]
      (V-optimal); ["wave"], ["wavelet:64"] (Haar-wavelet synopsis)

    Returns [Error message] on anything else. *)

type t

val build : spec -> domain:float * float -> float array -> t
(** [build spec ~domain samples] constructs the estimator from a sample of
    the relation.  When telemetry is enabled the build records a ["build"]
    span with per-phase timings ([selest_build_phase_seconds]; see
    [docs/TELEMETRY.md]); the constructed estimator is identical either
    way.  @raise Invalid_argument on an empty sample, an empty domain, or
    spec parameters out of range (bins or shifts < 1, bandwidth <= 0). *)

val name : t -> string
(** {!spec_name} of the spec this estimator was built from. *)

val spec : t -> spec
(** The spec this estimator was built from. *)

val selectivity : t -> a:float -> b:float -> float
(** Estimated distribution selectivity of [Q(a,b)], in [[0, 1]].  Feeds
    the [selest_selectivity_seconds] latency histogram when telemetry is
    enabled; the returned value is unaffected. *)

val estimate_count : t -> n_records:int -> a:float -> b:float -> float
(** [selectivity] scaled by the relation size: the estimated query result
    size (instance selectivity times N, Section 2). *)

val density : t -> float -> float option
(** The underlying density estimate where one exists ([None] for pure
    sampling). *)

val has_density : t -> bool
(** Whether this estimator exposes a density — the capability check
    behind {!density}'s option, answerable without probing a point
    (consumers like [Join.Equijoin] use it instead of probing the
    density at an arbitrary coordinate). *)

val default_suite : spec list
(** The estimators of the paper's final comparison (Figure 12): EWH with
    normal-scale bins, kernel with boundary kernels and DPI2, hybrid, and
    ASH with ten shifts. *)

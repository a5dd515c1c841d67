(** Estimator sweep over a targeted-selectivity workload grid.

    {!run} generates the {!Workloads} grid, builds every spec of the
    candidate suite once on the shared sample, reduces it to the summary
    the catalog serves ({!Selest.Stored.of_estimator} at the given cell
    count — the constructor [Catalog.Service.range_summary] calls), and
    evaluates each summary on every workload cell through
    {!Selest.Stored.selectivity_into}, the served evaluator.  The errors
    therefore describe what a catalog built from the same spec, sample
    and cell count answers, not the raw estimator.  Specs are
    distributed over {!Parallel.Map} (one task per spec, mirroring
    {!Workload.Experiment.compare_specs}); each task computes its
    summaries sequentially in grid order, so every error figure is
    bit-identical for every [jobs] value.  Build wall-time and
    ns/estimate are measured per spec — they are wall-clock costs, useful
    for Pareto fronts and reports but explicitly outside the determinism
    contract. *)

type measurement = {
  m_spec : string;  (** compact spec syntax, re-parseable *)
  m_label : string;  (** display name ({!Selest.Estimator.spec_name}) *)
  m_placement : Workloads.placement;
  m_target : float;
  m_summary : Workload.Metrics.summary;  (** errors on that workload cell *)
}
(** One (spec × workload cell) evaluation. *)

type cost = {
  c_spec : string;
  c_label : string;
  c_build_s : float;
      (** wall-clock time to build the spec on the sample and reduce it to
          its served summary *)
  c_ns_per_estimate : float;
      (** served-evaluator cost per query, measured over the whole grid *)
  c_vc_epsilon : float option;
      (** for sampling-backed specs: the VC-dimension uniform error bound
          {!vc_epsilon} at the sweep's sample size *)
}
(** Per-spec cost figures (wall-clock; not part of bit-identity). *)

type t = {
  s_dataset : string;
  s_records : int;
  s_sample_size : int;
  s_seed : int64;  (** workload-generation seed *)
  s_tolerance : float;
  s_count : int;  (** queries per workload cell *)
  s_stored_cells : int;  (** grid cells of the summaries scored *)
  s_specs : (string * Selest.Estimator.spec) list;  (** the swept suite *)
  s_workloads : (Workloads.placement * float * Workloads.t) list;
      (** achieved workload cells, grid order *)
  s_skipped : Workloads.failure list;
      (** grid cells whose target was unachievable on this attribute *)
  s_cells : measurement list;  (** spec-major, grid-minor, fixed order *)
  s_costs : cost list;  (** one per spec, suite order *)
}
(** A completed sweep. *)

val default_suite : (string * Selest.Estimator.spec) list
(** The full estimator zoo in compact syntax, ordered from cheapest to
    most expensive to build and query (the recommendation tie-break
    ladder): uniform, sampling, EWH, frequency polygon, EDH, MDH,
    wavelet, ASH, V-optimal, kernel (normal scale), kernel (DPI2),
    hybrid. *)

val vc_epsilon : n:int -> float
(** Uniform relative-selectivity error bound for estimating range-query
    selectivities from an [n]-element random sample, in the VC-dimension
    framework of "The VC-Dimension of Queries and Selectivity Estimation
    Through Sampling" (PAPERS.md): with probability 1 - δ every range
    query's sampled selectivity is within
    [sqrt (c/n · (d + ln (1/δ)))] of the true one, instantiated at
    VC-dimension [d = 2] (1-D ranges), [c = 0.5] and [δ = 0.05]. *)

val run :
  ?jobs:int ->
  ?specs:(string * Selest.Estimator.spec) list ->
  ?targets:float list ->
  ?placements:Workloads.placement list ->
  ?tolerance:float ->
  ?count:int ->
  cells:int ->
  Data.Dataset.t ->
  seed:int64 ->
  sample:float array ->
  t
(** [run ~cells ds ~seed ~sample] sweeps the suite, each spec reduced to
    a [cells]-cell served summary, over the workload grid ([count]
    defaults to 200 queries per cell).  Unachievable grid cells
    are recorded in [s_skipped] and skipped by every spec; the sweep
    itself fails only if {e no} cell is achievable.
    @raise Invalid_argument on an empty suite, an empty sample, [jobs < 1],
    [cells < 1], a grid with no achievable cell, or a spec whose summary
    has a non-finite cell. *)

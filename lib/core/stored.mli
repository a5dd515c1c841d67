(** Serializable statistics summaries.

    A production optimizer does not keep samples or fitted estimators in
    memory between sessions; ANALYZE reduces them to a compact summary in
    the system catalog.  This module is that reduction: any fitted
    {!Estimator.t} is probed once per cell of an equal-width grid, the
    per-cell masses are stored, and the summary answers range queries
    under the uniform-within-cell assumption — with a textual
    serialization for persistence.

    The cell masses are exact cell selectivities of the source estimator
    (probed via {!Estimator.selectivity}, not by sampling the density), so
    a stored kernel summary at [cells] resolution is exactly the kernel
    estimator convolved onto that grid.

    Each summary also carries a prefix-sum table of its cell masses
    ([cells + 1] floats, built on construction and on load, never
    persisted), so a range answer costs O(1) whatever its width or the
    cell count: [F(b) - F(a)] of the piecewise-linear cumulative mass. *)

type t

val of_estimator : ?cells:int -> domain:float * float -> Estimator.t -> t
(** [of_estimator ~domain est] probes [cells] (default 256) equal-width
    cells.  @raise Invalid_argument if [cells <= 0], the domain is empty,
    or a cell probe is NaN or infinite (the message names the cell). *)

val of_fn :
  ?cells:int -> domain:float * float -> (a:float -> b:float -> float) -> t
(** [of_fn ~domain f] is {!of_estimator} generalized to any range
    selectivity function: cell [i] stores [max 0 (f ~a:cell_lo ~b:cell_hi)].
    The adaptive serving path uses this to bake an ST-histogram refinement
    ([Feedback.Adaptive.selectivity]) into a swappable summary.
    @raise Invalid_argument if [cells <= 0], the domain is empty, or [f]
    returns NaN or an infinity for some cell (the message names the
    cell) — the same rule {!of_string} applies, so every summary built
    here writes a snapshot that loads. *)

val of_sample :
  ?cells:int -> ?spec:Estimator.spec -> domain:float * float -> float array -> t
(** Build the estimator from the sample (spec defaults to
    {!Estimator.kernel_defaults}) and reduce it. *)

val cells : t -> int
(** Grid resolution of this summary. *)

val domain : t -> float * float
(** Estimation domain the cells partition. *)

val selectivity : t -> a:float -> b:float -> float
(** Range selectivity under the uniform-within-cell assumption (the
    paper's formula (4)), clamped to [[0, 1]]: [F(b) - F(a)], where [F]
    is the prefix sum of the cells below a bound plus the linearly
    interpolated share of its own cell.  O(1) per query.  [F] is exactly
    monotone in floating point, so a range never answers less than a
    range it contains.  Query bounds may be infinite or lie far outside
    the domain: [F] is 0 at or below the domain and the whole mass at or
    above it, so [selectivity t ~a:neg_infinity ~b:infinity] is the whole
    mass.  Inverted bounds ([a > b]) and NaN bounds answer 0. *)

val selectivity_into :
  t -> pos:int -> len:int -> a:float array -> b:float array -> out:float array -> unit
(** [selectivity_into t ~pos ~len ~a ~b ~out] writes {!selectivity} of
    [Q(a.(i), b.(i))] to [out.(i)] for [pos <= i < pos + len],
    bit-identically to the scalar probe (both run one evaluator) and
    without allocating — the
    serving engine evaluates each same-summary run of a request
    through this in place.  [len = 0] touches nothing.
    @raise Invalid_argument on a negative range or arrays shorter than
    [pos + len]. *)

val to_string : t -> string
(** One-line-per-field textual form, safe to store in a catalog column. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] describes the first malformed field
    (a non-finite domain bound, or a negative or non-finite weight,
    included).  The prefix-sum table is rebuilt from the weights. *)

(** {1 Rectangle (2-D grid) summaries}

    The 2-D analog of {!t}: an equal-width grid of cell masses over a
    product domain, answering rectangle queries under the
    uniform-within-cell assumption.  [Multidim.Hist2d] delegates its
    arithmetic here, so a served rectangle estimate is bit-identical to
    the direct library call. *)

type rect

val canonical_rect :
  x_lo:float ->
  x_hi:float ->
  y_lo:float ->
  y_hi:float ->
  (float * float * float * float) option
(** Closed-rectangle-on-the-integer-grid canonicalization, the shared
    query semantics of every 2-D estimator in this codebase: the rectangle
    means the integer points it contains, and the continuous region
    actually evaluated is the union of their unit cells —
    [(ceil x_lo - 0.5, floor x_hi + 0.5)] per axis.  Queries already
    phrased on half-integer cell edges map to themselves; a degenerate
    [[a, a]] query becomes the unit cell around [a], agreeing with the
    inclusive exact count of [Multidim.Dataset2d].  [None] when no integer
    point lies inside (inverted, empty or NaN bounds). *)

val rect_of_points :
  domain_x:float * float ->
  domain_y:float * float ->
  bins_x:int ->
  bins_y:int ->
  (float * float) array ->
  rect
(** Build the grid by binning sample points (cell indices clamped in
    float space, so out-of-domain and infinite coordinates land in edge
    cells).  @raise Invalid_argument on an empty sample, empty domains or
    non-positive bin counts. *)

val rect_of_fn :
  domain_x:float * float ->
  domain_y:float * float ->
  bins_x:int ->
  bins_y:int ->
  (x_lo:float -> x_hi:float -> y_lo:float -> y_hi:float -> float) ->
  rect
(** Probe any 2-D selectivity function once per cell (the 2-D {!of_fn}):
    cell [(i, j)] stores [max 0 (f cell_rect)].  Use to reduce a
    product-kernel or independence estimator onto a servable grid.
    @raise Invalid_argument on empty domains, non-positive bins, or a
    NaN or infinite probe (the message names the cell [(i, j)]). *)

val rect_bins : rect -> int * int
(** Grid resolution [(bins_x, bins_y)]. *)

val rect_domains : rect -> (float * float) * (float * float)
(** The product domain [(domain_x, domain_y)] the grid partitions. *)

val rect_selectivity :
  rect -> x_lo:float -> x_hi:float -> y_lo:float -> y_hi:float -> float
(** Selectivity of the canonicalized ({!canonical_rect}) rectangle:
    per-cell mass times overlapped area fraction, clamped to [[0, 1]];
    [0] when the rectangle contains no integer point. *)

val rect_density : rect -> float -> float -> float
(** Cell mass over [total * cell area]; 0 outside the grid. *)

val rect_to_string : rect -> string
(** Textual serialization (["selest-stored-rect v1"] header). *)

val rect_of_string : string -> (rect, string) result
(** Inverse of {!rect_to_string}; total on malformed input. *)

val rect_spec_of_string : string -> (int * int, string) result
(** Parse the compact rect spec syntax the catalog stores:
    ["hist2d"] (32x32 default), ["hist2d:64"], ["hist2d:64x32"].
    Returns the bin counts [(bins_x, bins_y)]. *)

(** {1 Join summaries}

    Per-relation equi-depth histograms plus the retained build samples,
    answering equi- and inequality-join size estimates.  The arithmetic
    (density product for [eq], histogram-pair sweep for [lt]/[le]) lives
    here so [Join.Ineqjoin] and the serving stack share one code path.
    A join answer takes no query bounds, so both O(k_R k_S) sweeps run
    once when the summary is built or loaded, never per request. *)

type join_pred = Join_eq | Join_lt | Join_le

val join_pred_to_string : join_pred -> string
(** ["eq"], ["lt"] or ["le"]. *)

val join_pred_of_string : string -> (join_pred, string) result
(** Inverse of {!join_pred_to_string}; [Error] on anything else. *)

type join

val join_of_samples :
  domain:float * float ->
  buckets:int ->
  n_r:int ->
  n_s:int ->
  float array ->
  float array ->
  join
(** [join_of_samples ~domain ~buckets ~n_r ~n_s sample_r sample_s] builds
    per-relation equi-depth histograms (at most [buckets] buckets each;
    zero-width buckets merge) from the two samples, clamped to the shared
    domain, and retains the sorted samples for adaptive rebuilds.
    @raise Invalid_argument on empty samples, non-finite values,
    non-positive sizes/buckets, or an empty domain. *)

val join_domain : join -> float * float
(** The shared attribute domain. *)

val join_sizes : join -> int * int
(** The relation sizes [(n_r, n_s)] estimates scale by. *)

val join_buckets : join -> int * int
(** Bucket counts of the two equi-depth histograms. *)

val join_samples : join -> float array * float array
(** The retained (sorted, domain-clamped) build samples. *)

val join_estimate : join -> pred:join_pred -> float
(** Estimated size of [R.A pred S.B]: the density-product integral for
    [Join_eq] (each integer value occupying a unit cell), the
    histogram-pair sweep [sum_ij m_i m_j P(x < y)] for [Join_lt], and
    their sum for [Join_le].  O(1): it reads the sweeps' results stored
    at build or load. *)

val join_to_string : join -> string
(** Textual serialization (["selest-stored-join v1"] header). *)

val join_of_string : string -> (join, string) result
(** Inverse of {!join_to_string}; total on malformed input. *)

val join_spec_of_string : string -> (int, string) result
(** Parse the compact join spec syntax the catalog stores: ["edh"]
    (64 buckets default) or ["edh:128"].  Returns the bucket budget. *)

(** {1 Kind-dispatched summaries}

    What the catalog snapshots and the server caches: one of the three
    summary kinds, serialized with a kind-identifying header line. *)

type kind = Range_kind | Rect_kind | Join_kind

val kind_name : kind -> string
(** ["range"], ["rect"] or ["join"]. *)

val kind_of_name : string -> (kind, string) result
(** Inverse of {!kind_name}; [Error] on anything else. *)

type any = Range of t | Rect of rect | Join of join

val any_kind : any -> kind
(** The constructor's kind. *)

val any_cells : any -> int
(** Summary resolution: grid cells for range, [bins_x * bins_y] for rect,
    total histogram buckets for join. *)

val any_domain : any -> float * float
(** The (x-axis, for rect) estimation domain. *)

val any_to_string : any -> string
(** The kind's serialization — headers stay distinct, so {!any_of_string}
    can dispatch, and a v1 range snapshot loads unchanged. *)

val any_of_string : string -> (any, string) result
(** Parse any of the three summary serializations by header line; total
    on malformed input. *)

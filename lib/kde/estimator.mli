(** Kernel selectivity estimation (Sections 3.2 and 3.2.1 of the paper).

    The estimator holds a sorted copy of the sample and answers range-query
    selectivities through the kernel primitive (formula (6)); with the
    sorted sample the cost per query is [O(log n + k)] where [k] is the
    number of samples within one bandwidth of the query range, improving on
    the [Theta(n)] scan of the paper's Algorithm 1 exactly as suggested
    there.  {!selectivity_scan} keeps the literal [Theta(n)] algorithm for
    cross-checking and for the timing benchmark.

    Three boundary policies implement Section 3.2.1:
    - {!No_treatment}: the raw estimator, biased near domain boundaries;
    - {!Reflection}: samples within one kernel radius of a boundary are
      mirrored outside it (density property kept, consistency lost);
    - {!Boundary_kernels}: Simonoff-Dong kernels replace the Epanechnikov
      kernel for estimation points within [h] of a boundary (consistency
      kept, density property lost). *)

type boundary_policy =
  | No_treatment
  | Reflection
  | Boundary_kernels

val boundary_policy_name : boundary_policy -> string
(** Stable lower-case name (["none"], ["reflection"],
    ["boundary-kernels"]) used by spec strings and reports. *)

type t

val create :
  ?kernel:Kernels.Kernel.t ->
  ?boundary:boundary_policy ->
  domain:float * float ->
  h:float ->
  float array ->
  t
(** [create ~domain ~h samples] builds an estimator over [samples] (copied
    and sorted; values outside [domain] are clamped to it).  [kernel]
    defaults to [Epanechnikov], [boundary] to [No_treatment].
    @raise Invalid_argument if [h <= 0], the domain is empty, the sample is
    empty, or [Boundary_kernels] is combined with a kernel of non-unit
    support radius (the Simonoff-Dong family pairs with the Epanechnikov
    kernel). *)

val kernel : t -> Kernels.Kernel.t
(** The kernel function the estimator was created with. *)

val boundary : t -> boundary_policy
(** The boundary policy in effect. *)

val bandwidth : t -> float
(** The smoothing bandwidth [h]. *)

val domain : t -> float * float
(** The estimation domain [(lo, hi)] samples were clamped to. *)

val sample_size : t -> int
(** Number of samples [n] held by the estimator. *)

val samples : t -> float array
(** The sorted sample (shared storage: do not mutate). *)

val selectivity : t -> a:float -> b:float -> float
(** [selectivity t ~a ~b] estimates the distribution selectivity of
    [Q(a,b)]; 0 when [a > b].  The result is clamped to [[0, 1]] (boundary
    kernels can produce small negative excursions). *)

val selectivity_scan : t -> a:float -> b:float -> float
(** The literal Algorithm 1: a [Theta(n)] scan over all samples.  Agrees
    with {!selectivity} to floating-point accuracy; exists for tests and the
    timing benchmark. *)

val density : t -> float -> float
(** [density t x] is the boundary-corrected density estimate [f_hat(x)];
    0 outside the domain. *)

val mass : t -> float
(** [int f_hat] over the whole domain via {!selectivity} on the full range —
    1 up to boundary loss (exactly the "loss of weight" the paper
    describes; tests assert the expected deficit per policy). *)

(** Batch (structure-of-arrays) evaluation of fitted estimators.

    {!Estimator.selectivity} answers one query through a closure, which on
    this toolchain (no flambda) boxes both query bounds and the result on
    every call, and re-derives per-estimator constants per query.
    {!compile} flattens a fitted estimator into plain [float array]s plus
    unboxed scalars once, and {!estimate_into} then evaluates a whole
    query batch inside one loop with no per-query allocation — the path
    the advisor's sweep and the [bench micro] target time.  Serving does
    not run it: the catalog answers from [Stored] summaries.

    {b Bit-identity.}  For every estimator spec except the Gaussian
    kernel, batch results are bit-identical to the scalar path: the
    evaluators replay the scalar arithmetic in the same operation order
    over the same float values and share the scalar primitives by forced
    inlining (see the implementation header).  The Gaussian kernel's
    transcendental primitive is replaced by a {!Kernels.Lut} table; the
    resulting selectivity differs from the scalar path by at most twice
    the table's interpolation error (< 1e-6 with the default table — the
    documented tolerance, enforced by [test/test_batch.ml]).

    Query bounds are expected to be non-NaN; both paths clamp them to the
    estimator's domain.  docs/PERFORMANCE.md is the handbook for the
    memory layout, the API and the benchmark numbers. *)

type t
(** A compiled batch plan: flat layout plus the spec it came from.  Plans
    share storage with the estimator they were compiled from (sorted
    samples, histogram edge/count arrays) — cheap to compile, and any
    mutation of those arrays is as forbidden as it is for the scalar
    path. *)

val compile : Estimator.t -> t
(** [compile est] lays out the fitted structure of [est] flat: histogram
    edges and counts (concatenated across shifts for the ASH), sorted
    kernel sample and reflection arrays, per-bin arrays plus flattened
    per-bin kernel estimators for the hybrid, frequency-polygon knots, or
    the sorted sample for pure sampling.  Gaussian kernel plans also
    reference the shared CDF lookup table. *)

val spec : t -> Estimator.spec
(** The spec of the estimator this plan was compiled from. *)

val estimate_into : t -> n:int -> a:float array -> b:float array -> out:float array -> unit
(** [estimate_into t ~n ~a ~b ~out] writes the selectivity of query
    [Q(a.(i), b.(i))] to [out.(i)] for [0 <= i < n].  Steady-state
    allocation-free: all buffers are caller-owned, and the evaluation
    loops box no floats (asserted by the allocation tests and the
    [bench micro] gate).  [n = 0] is a valid empty batch and touches
    nothing.
    @raise Invalid_argument if [n < 0] or any array is shorter than
    [n]. *)

val estimate : t -> a:float array -> b:float array -> float array
(** Convenience wrapper over {!estimate_into} that allocates the result
    array ([n = Array.length a]).
    @raise Invalid_argument if [a] and [b] differ in length. *)

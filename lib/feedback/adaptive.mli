(** Adaptive selectivity estimation from query feedback — the paper's third
    future-work item ("include the knowledge of previous queries to improve
    the quality of kernel estimators", citing Chen & Roussopoulos [1]).

    The estimator keeps a self-tuning weight vector over equal-width
    buckets, seeded from any base estimator (kernel, histogram, hybrid...).
    After a query executes, the {e observed} true selectivity is fed back:
    the estimation error is distributed over the buckets the query
    overlaps, proportionally to their current contribution (the
    ST-histogram update rule).  Estimates therefore sharpen exactly where
    the workload actually queries, without touching the data again.

    In the serving stack this module is the {e fast} adaptation channel:
    [Catalog.Service.observe] feeds each served entry's instance from the
    wire-level [observe] operation, and the maintenance tick periodically
    bakes the refined weights into an atomically swapped summary, so
    served answers stay bit-stable between swaps.  The slow channel
    (streaming inserts into a reservoir and rebuilding from the fresh
    sample) is {!Online.Reservoir}'s job.  The end-to-end policy,
    sizing guidance for [learning_rate] and the refresh period, and the
    measured drift-timeline experiment live in [docs/ADAPTIVITY.md].

    Updates are deterministic in observation order and cost O(buckets
    overlapped) with no allocation, so the serving engine can absorb
    feedback inline. *)

type t

val create :
  ?buckets:int ->
  ?learning_rate:float ->
  domain:float * float ->
  base:(a:float -> b:float -> float) ->
  unit ->
  t
(** [create ~domain ~base ()] seeds [buckets] equal-width bucket weights
    (default 64) from the base estimator's bucket selectivities;
    [learning_rate] (default 0.5) scales how much of each observed error is
    absorbed per feedback.
    @raise Invalid_argument if [buckets <= 0], the domain is empty, or
    [learning_rate] outside [(0, 1]]. *)

val selectivity : t -> a:float -> b:float -> float
(** Current estimate: overlapped bucket weights, clamped to [[0, 1]]. *)

val observe : t -> a:float -> b:float -> actual:float -> unit
(** [observe t ~a ~b ~actual] feeds back the true selectivity of a query
    that has just executed.  The estimate for [[a, b]] converges toward
    [actual] geometrically (residual error scales by
    [1 - learning_rate] per repeat), while disjoint ranges keep their
    weights untouched.  Replaying an observation is convergent, not
    harmful — relevant when feedback arrives over an at-least-once
    transport.  @raise Invalid_argument unless [0 <= actual <= 1]. *)

val feedback_count : t -> int
(** Number of observations absorbed so far. *)

val total_mass : t -> float
(** Sum of bucket weights — drifts from 1 only as far as the observed
    errors demand (reported for diagnostics and tests). *)

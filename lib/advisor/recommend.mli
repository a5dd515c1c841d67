(** Spec recommendation: accuracy-first scoring with cost tie-breaks.

    Candidates are restricted to the Pareto {!Pareto.front} (a dominated
    spec is never recommended).  Each candidate is scored as a weighted
    sum of max-normalized accuracy and costs,

    {v score = w_accuracy * mre/max_mre
            + w_build * build/max_build + w_query * ns/max_ns v}

    and candidates within [w_tie_margin] (relative) of the best score are
    a tie, resolved to the earliest candidate in suite order — the suite
    is ordered cheapest-first, so ties fall to the cheaper spec.  The
    {!default_weights} put all weight on accuracy, which makes the
    default recommendation a pure function of the (bit-identical) swept
    MREs: same data + same seed ⇒ same spec, at any [jobs].  Non-zero
    build/query weights fold measured wall-clock costs into the score,
    trading that determinism for operator-controlled cost pressure. *)

type weights = {
  w_accuracy : float;  (** weight on normalized mean MRE *)
  w_build : float;  (** weight on normalized build wall-time *)
  w_query : float;  (** weight on normalized ns/estimate *)
  w_tie_margin : float;
      (** relative score band treated as a tie (resolved cheapest-first) *)
}

val default_weights : weights
(** [{ w_accuracy = 1.0; w_build = 0.0; w_query = 0.0;
      w_tie_margin = 0.10 }] — accuracy decides, specs within 10% of the
    best score tie, and ties fall to the cheaper spec. *)

val weights_of_string : string -> (weights, string) result
(** Parse ["accuracy,build,query"] or ["accuracy,build,query,margin"]
    (e.g. ["1,0.1,0.1"]) — the CLI's [--weights] syntax.  Weights must be
    non-negative with [w_accuracy > 0]; the margin must be in [[0, 1)]. *)

type t = {
  r_spec : string;  (** recommended spec, compact re-parseable syntax *)
  r_label : string;  (** display name *)
  r_parsed : Selest.Estimator.spec;  (** the parsed spec, ready to build *)
  r_score : float;  (** the winning score *)
  r_mean_mre : float;  (** chosen spec's mean MRE over the grid *)
  r_best_mre : float;  (** best single-spec mean MRE in the sweep *)
  r_regret : float;
      (** [r_mean_mre / r_best_mre] — the figure gated by [bench --advise] *)
  r_oracle_mre : float;
      (** mean over grid cells of the per-cell best MRE: the (usually
          unattainable) per-workload oracle that switches spec per cell *)
  r_oracle_regret : float;  (** [r_mean_mre / r_oracle_mre] *)
  r_weights : weights;
  r_front : Pareto.point list;  (** the candidates actually considered *)
  r_crossover : Pareto.band list;  (** the winner per grid cell *)
  r_vc_epsilon : float option;
      (** the sampling confidence bound, when the chosen spec is
          sampling-backed *)
  r_provenance : string;
      (** one-line audit string (spec, seed, grid shape, summary cells,
          regret) recorded
          in catalog entries built with [--spec auto] *)
}
(** A recommendation with the evidence that produced it. *)

val choose : weights:weights -> Pareto.point list -> Pareto.point option
(** The bare policy on a point list (exposed for hand-built-table tests):
    restrict to the front, score, tie-break.  [None] on an empty list.
    @raise Invalid_argument on invalid weights. *)

val recommend : ?weights:weights -> Sweep.t -> (t, string) result
(** Score the sweep and recommend a spec.  [Error] only when the sweep
    has no measurable cells. *)

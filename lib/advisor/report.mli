(** Machine-readable reports — the one output schema shared by
    [selest_cli advise --json] and [selest_cli compare --json].

    The encoder is a small self-contained JSON printer (no external
    dependency): objects keep insertion order, strings are escaped per
    RFC 8259, floats print with round-trippable precision and non-finite
    floats encode as [null] (JSON has no IEEE specials).  Every report
    carries the same envelope — [schema], [kind], [dataset] — and
    describes per-spec error summaries with one shared row shape, so a
    consumer that parses [compare] output parses [advise] output too. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list
      (** a JSON value; [Obj] preserves field order *)

val to_string : json -> string
(** Render with 2-space indentation and a trailing newline. *)

val schema : string
(** The envelope tag: ["selest-advisor-report v1"]. *)

val summary_json : Workload.Metrics.summary -> json
(** The shared error-summary shape: [mre], [mae], [mean_signed],
    [max_relative], [evaluated], [skipped_empty]. *)

val compare_report :
  dataset:string ->
  records:int ->
  sample_size:int ->
  fraction:float ->
  count:int ->
  (string * Workload.Metrics.summary) list ->
  json
(** The [compare --json] payload: envelope with [kind = "compare"],
    workload parameters, and one row per spec ([label] + [summary]). *)

val advise_report : Sweep.t -> Recommend.t -> json
(** The [advise --json] payload: envelope with [kind = "advise"], the
    cell count of the served summaries scored ([summary_cells]), the
    workload grid (achieved and skipped cells), per-spec costs (with the
    VC confidence bound on sampling rows), the crossover matrix, the
    Pareto front and the recommendation (spec, score, regrets,
    provenance). *)

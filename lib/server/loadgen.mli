(** Load generators for the estimate server: closed-loop and open-loop.

    {b Closed loop} ({!run}): [connections] worker threads each own a
    {!Client} and drive their contiguous slice of the request array as
    fast as replies come back (at most one outstanding exchange per
    connection, so offered load adapts to server latency instead of
    overrunning it).  Good for peak-capacity measurement; incapable of
    showing what happens past saturation, because a slow server slows
    the generator down with it.

    {b Open loop} ({!run_open_loop}): arrivals fire on a fixed schedule
    [t0 + i/rate] whether or not earlier exchanges have finished, the
    way independent clients would.  Latency is measured from the
    {e scheduled} arrival, so server queueing delay — the signature of
    operating past the collapse point — shows up in the percentiles
    instead of being absorbed by a waiting generator.  An arrival that
    finds every virtual client busy is {e dropped} (counted, never
    queued); an exchange that starts more than one inter-arrival time
    after its schedule is counted {e late}.

    Every mode sends {!Wire.request} values through {!Client.request},
    one exchange per frame.  Latency is measured per exchange — per
    request with [batch = 1], per frame otherwise — and summarized the
    same way by every mode ({!summary}): exact percentiles over the
    merged samples, overall and per request kind.  Methodology and interpretation guidance live in
    [docs/SERVING.md]. *)

type group = {
  g_n : int;  (** exchanges in this class *)
  g_p50_ms : float;  (** exact median latency of the class *)
  g_p99_ms : float;  (** exact 99th-percentile latency of the class *)
}
(** Latency summary of one request kind (see {!request_kind}). *)

type summary = {
  ok : int;  (** requests answered with the reply their kind expects *)
  errors : (string * int) list;
      (** failed exchanges by class, sorted: typed server codes
          (["overloaded"], ["timeout"], ...), ["transport"],
          ["protocol"] (a reply of the wrong shape, e.g. a
          [Batch_reply] with the wrong count) *)
  mean_ms : float;  (** mean exchange latency, milliseconds *)
  p50_ms : float;  (** exact median exchange latency *)
  p95_ms : float;  (** exact 95th-percentile exchange latency *)
  p99_ms : float;  (** exact 99th-percentile exchange latency *)
  max_ms : float;  (** slowest exchange *)
  groups : (string * group) list;
      (** per-kind latency summaries, sorted by {!request_kind} key *)
}
(** The measurements every run reports the same way, merged over its
    workers. *)

type report = {
  connections : int;  (** worker threads = concurrent connections *)
  queries : int;  (** requests attempted *)
  wall_s : float;  (** wall-clock of the whole run *)
  throughput_qps : float;  (** [queries / wall_s] *)
  summary : summary;  (** latency, error classes and per-kind groups *)
  replies : Wire.response option array;
      (** the served reply to each request, aligned with the request
          array ([Estimate_reply] for each estimate a batched frame
          carried); [None] where the request failed — its class is in
          [summary.errors].  {!verify} checks them against direct
          [Catalog.Service] calls. *)
}

val request_kind : Wire.request -> string
(** The group key of a request: ["range"] ({!Wire.request.Estimate} and
    {!Wire.request.Batch_estimate}), ["rect"], ["join"], ["insert"],
    ["observe"], ["invalidate"], ["ls"] or ["ping"]. *)

val synthetic_requests :
  entries:Wire.entry_info list -> count:int -> seed:int64 -> Wire.request array
(** [count] random queries over the given entries, each matched to its
    entry's kind (uniform entry choice): range entries get an
    {!Wire.request.Estimate} with ordered uniform endpoints in the
    entry's domain; rect entries an {!Wire.request.Estimate_rect} with
    ordered uniform endpoints per axis (the y-axis drawn from the
    entry's [domain_y]); join entries an {!Wire.request.Estimate_join}
    with one of the three predicates, uniformly.  Fully deterministic
    from [seed].  Feed it the {!Client.ls} reply.
    @raise Invalid_argument on an empty entry list or negative count. *)

val run :
  ?client_config:Client.config ->
  ?batch:int ->
  connections:int ->
  address:Wire.address ->
  Wire.request array ->
  report
(** Drive the request array against the server, one {!Client.request}
    per exchange, and block until every worker finishes.  [batch]
    (default [1]) groups each run of up to [batch] consecutive unpinned
    {!Wire.request.Estimate}s of a worker's slice into one
    [batch_estimate] frame; every other request travels alone.  Latency
    is measured per exchange.  Each worker's retry jitter is seeded from
    [client_config.seed] plus its index, so runs are reproducible.
    Counts also flow into the [Telemetry] registry as [loadgen_*]
    metrics when telemetry is enabled.
    @raise Invalid_argument if [connections < 1] or [batch < 1]. *)

val report_to_string : report -> string
(** Multi-line human-readable summary (throughput, latency percentiles,
    error classes, per-kind groups). *)

val direct_reply : Catalog.Service.t -> Wire.request -> Wire.response
(** The reply a direct call makes to an estimate request:
    [Catalog.Service.answer] for {!Wire.request.Estimate} (spec pins are
    not checked) and {!Wire.request.Batch_estimate},
    [Catalog.Service.answer_rect] and [Catalog.Service.answer_join] for
    the other two kinds.  A refused query comes back as an
    [Error_reply] ([Unknown_entry] for an unknown name, [Bad_request]
    otherwise) carrying the service's message.
    @raise Invalid_argument on any request that is not an estimate. *)

val verify : Catalog.Service.t -> Wire.request array -> report -> int * int
(** [verify svc requests report] compares every reply in [report] with
    {!direct_reply} by {!Wire.equal_response} (floats bit for bit) and
    returns [(checked, mismatched)]; requests that failed are not
    checked.  [svc] should be opened on the served snapshot directory
    and not be served itself.
    @raise Invalid_argument if [requests] is not the array [report] was
    run over (their lengths differ) or holds a non-estimate. *)

type open_report = {
  rate_qps : float;  (** the arrival rate the run was asked to offer *)
  duration_s : float;  (** the scheduling horizon the run was asked for *)
  offered : int;  (** arrivals scheduled: [floor (rate * duration)] or so *)
  sent : int;  (** arrivals that found a virtual client and were sent *)
  dropped : int;  (** arrivals dropped: every virtual client was busy *)
  late : int;
      (** exchanges that started more than [late_factor / rate] after
          their scheduled arrival — the generator or accept path was
          slipping *)
  achieved_qps : float;  (** [sent / wall]: what actually reached the server *)
  o_summary : summary;
      (** as in {!report}, with every latency measured {e from the
          scheduled arrival} *)
}
(** Result of one open-loop run.  A healthy operating point has
    [dropped = 0], [late ≈ 0], and [achieved_qps ≈ rate_qps]; past the
    collapse point, drops and the arrival-to-reply percentiles grow
    without bound while closed-loop numbers would still look flat. *)

val run_open_loop :
  ?client_config:Client.config ->
  ?max_clients:int ->
  ?late_factor:float ->
  rate:float ->
  duration_s:float ->
  address:Wire.address ->
  Wire.request array ->
  open_report
(** Offer [rate] arrivals per second for [duration_s] seconds, cycling
    through the request array (request [i mod length]), one exchange per
    arrival.  [max_clients] (default [64]) bounds the pool
    of virtual clients standing in for "unbounded" ones: when all are
    busy the arrival is dropped and counted rather than queued, which
    keeps the arrival process open instead of silently closing the
    loop.  [late_factor] (default [1.0]) sets the late threshold to
    [late_factor / rate] seconds of start lag.  Blocks until the
    horizon passes and every in-flight exchange finishes.
    @raise Invalid_argument if [rate <= 0.], [duration_s <= 0.],
    [max_clients < 1], or the request array is empty. *)

val open_report_to_string : open_report -> string
(** Multi-line human-readable summary (offered/achieved rate, drop and
    late counts, latency-from-arrival percentiles, error classes and
    per-kind groups). *)

type drift_report = {
  d_open : open_report;  (** the underlying open-loop measurements *)
  d_estimates : int;  (** estimate exchanges sent (the ["range"] group) *)
  d_est_ok : int;  (** estimates answered *)
  d_inserts : int;  (** insert exchanges sent *)
  d_insert_ok : int;  (** inserts acknowledged *)
  d_observes : int;  (** observe exchanges sent *)
  d_observe_ok : int;  (** observes acknowledged *)
  d_mean_abs_err : float;
      (** mean [|estimate - generator truth|] over answered estimates
          (the drive-level accuracy signal; [nan] if none answered) *)
  d_max_abs_err : float;  (** worst single estimate error *)
  d_est_invalid : int;
      (** answered estimates that were non-finite or outside [0, 1] —
          always [0] against a correct server *)
}
(** Result of one {!run_drift} run: the open-loop report plus per-op
    counts and accuracy against the generator's analytic truth. *)

val run_drift :
  ?client_config:Client.config ->
  ?max_clients:int ->
  ?late_factor:float ->
  ?insert_every:int ->
  ?insert_batch:int ->
  ?observe_every:int ->
  ?window:float ->
  ?seed:int64 ->
  rate:float ->
  duration_s:float ->
  entry:Wire.entry_info ->
  address:Wire.address ->
  unit ->
  drift_report
(** Drive one range entry of an adaptive server ([serve --adaptive]) with a
    {e shifting} workload on the open-loop scheduler: the relation's
    live values are modeled as uniform over a window [window] (default
    [0.25]) of the entry's domain wide, whose center slides linearly
    across the domain over the run.  Arrival [i] is an {!Client.insert}
    of [insert_batch] window-distributed values when [i mod insert_every
    = 0], an {!Client.observe} carrying the analytic true selectivity
    when [i mod observe_every = 1], and an {!Client.estimate} otherwise
    (defaults: every 4th arrival inserts, every 4th observes, half
    estimate).  Every payload is a function of [seed] and the arrival
    index alone, so runs are reproducible and the report's
    [d_mean_abs_err] can be compared across server configurations —
    the adaptive-on vs adaptive-off comparison is automated in
    [bench/main.ml] ([--drift]) and walked through in
    [docs/ADAPTIVITY.md].
    @raise Invalid_argument if [entry] is not a range entry,
    [rate <= 0.], [duration_s <= 0.], [max_clients < 1],
    [insert_every < 2], [insert_batch < 1], [observe_every < 2], or
    [window] outside [(0, 1]]. *)

val drift_report_to_string : drift_report -> string
(** {!open_report_to_string} plus per-op counts and the accuracy-vs-
    truth line. *)

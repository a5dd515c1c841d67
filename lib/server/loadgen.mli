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

    Latency is measured per exchange — per query with [batch = 1], per
    frame otherwise — and summarized with exact percentiles over the
    merged samples.  Methodology and interpretation guidance live in
    [docs/SERVING.md]. *)

type group = {
  g_n : int;  (** exchanges in this class *)
  g_p50_ms : float;  (** exact median latency of the class *)
  g_p99_ms : float;  (** exact 99th-percentile latency of the class *)
}
(** Latency summary of one request kind (see {!run_mixed}). *)

type report = {
  connections : int;  (** worker threads = concurrent connections *)
  queries : int;  (** range queries attempted *)
  ok : int;  (** queries answered with an estimate *)
  wall_s : float;  (** wall-clock of the whole run *)
  throughput_qps : float;  (** [queries / wall_s] *)
  mean_ms : float;  (** mean exchange latency, milliseconds *)
  p50_ms : float;  (** exact median exchange latency *)
  p95_ms : float;  (** exact 95th-percentile exchange latency *)
  p99_ms : float;  (** exact 99th-percentile exchange latency *)
  max_ms : float;  (** slowest exchange *)
  errors : (string * int) list;
      (** failures by class, sorted: typed server codes
          (["overloaded"], ["timeout"], ...), ["transport"],
          ["protocol"] *)
  answers : float array;
      (** per-request estimates, aligned with the request array; [nan]
          where the query failed — lets callers verify bit-identity
          against a direct [Catalog.Service.answer] call *)
  groups : (string * group) list;
      (** per-kind latency summaries of a {!run_mixed} run, sorted by
          kind name; empty for {!run} *)
}

val synthetic_requests :
  entries:Wire.entry_info list -> count:int -> seed:int64 -> (string * float * float) array
(** [count] random range queries over the given entries (uniform entry
    choice; endpoints uniform in the entry's domain, ordered), fully
    deterministic from [seed].  Feed it the {!Client.ls} reply.
    @raise Invalid_argument on an empty entry list or negative count. *)

type mixed_request =
  | Mix_range of string * float * float  (** one range query [(entry, a, b)] *)
  | Mix_rect of {
      m_entry : string;
      m_x_lo : float;
      m_x_hi : float;
      m_y_lo : float;
      m_y_hi : float;
    }  (** one rectangle query against a rect entry *)
  | Mix_join of { m_entry : string; m_pred : Selest.Stored.join_pred }
      (** one join-size query against a join entry *)
(** One exchange of a mixed-kind workload (see {!run_mixed}). *)

val mixed_kind : mixed_request -> string
(** The class key of a mixed request: ["range"], ["rect"] or ["join"] —
    the group names {!run_mixed} reports under. *)

val synthetic_mixed_requests :
  entries:Wire.entry_info list -> count:int -> seed:int64 -> mixed_request array
(** [count] random queries over the given entries, each matched to its
    entry's kind (uniform entry choice): range entries get ordered
    uniform endpoints as {!synthetic_requests}; rect entries get an
    axis-aligned rectangle with ordered uniform endpoints per axis (the
    y-axis drawn from the entry's [domain_y]); join entries cycle the
    three predicates uniformly.  Fully deterministic from [seed].
    @raise Invalid_argument on an empty entry list or negative count. *)

val run :
  ?client_config:Client.config ->
  ?batch:int ->
  connections:int ->
  address:Wire.address ->
  (string * float * float) array ->
  report
(** Drive the request array against the server and block until every
    worker finishes.  [batch] groups consecutive queries of a worker's
    slice into one [batch_estimate] frame (default [1]: one [estimate]
    per exchange).  Each worker's
    retry jitter is seeded from [client_config.seed] plus its index, so
    runs are reproducible.  Counts also flow into the [Telemetry]
    registry as [loadgen_*] metrics when telemetry is enabled.
    @raise Invalid_argument if [connections < 1] or [batch < 1]. *)

val run_mixed :
  ?client_config:Client.config ->
  connections:int ->
  address:Wire.address ->
  mixed_request array ->
  report
(** {!run} for a mixed-kind workload: one exchange per request —
    [estimate], [estimate_rect] or [estimate_join] by the request's
    constructor — over [connections] closed-loop workers.  Per-kind
    latency groups (keys ["range"], ["rect"], ["join"]) are always
    reported; [answers] carries the served value of every exchange
    (selectivities for range/rect, estimated sizes for join), [nan]
    where it failed, so callers can verify bit-identity against direct
    [Catalog.Service] calls.
    @raise Invalid_argument if [connections < 1]. *)

val report_to_string : report -> string
(** Multi-line human-readable summary (throughput, latency percentiles,
    error classes, per-class groups when present). *)

type open_report = {
  rate_qps : float;  (** the arrival rate the run was asked to offer *)
  duration_s : float;  (** the scheduling horizon the run was asked for *)
  offered : int;  (** arrivals scheduled: [floor (rate * duration)] or so *)
  sent : int;  (** arrivals that found a virtual client and were sent *)
  o_ok : int;  (** exchanges answered with an estimate *)
  dropped : int;  (** arrivals dropped: every virtual client was busy *)
  late : int;
      (** exchanges that started more than [late_factor / rate] after
          their scheduled arrival — the generator or accept path was
          slipping *)
  achieved_qps : float;  (** [sent / wall]: what actually reached the server *)
  o_mean_ms : float;  (** mean latency {e from scheduled arrival}, ms *)
  o_p50_ms : float;  (** exact median latency from scheduled arrival *)
  o_p95_ms : float;  (** exact 95th percentile from scheduled arrival *)
  o_p99_ms : float;  (** exact 99th percentile from scheduled arrival *)
  o_max_ms : float;  (** slowest exchange, from scheduled arrival *)
  o_errors : (string * int) list;  (** failures by class, as in {!report} *)
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
  (string * float * float) array ->
  open_report
(** Offer [rate] arrivals per second for [duration_s] seconds, cycling
    through the request array (request [i mod length]), one [estimate]
    exchange per arrival.  [max_clients] (default [64]) bounds the pool
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
    late counts, latency-from-arrival percentiles). *)

type drift_report = {
  d_open : open_report;  (** the underlying open-loop measurements *)
  d_estimates : int;  (** estimate exchanges sent *)
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
(** Drive one entry of an adaptive server ([serve --adaptive]) with a
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
    @raise Invalid_argument if [rate <= 0.], [duration_s <= 0.],
    [max_clients < 1], [insert_every < 2], [insert_batch < 1],
    [observe_every < 2], or [window] outside [(0, 1]]. *)

val drift_report_to_string : drift_report -> string
(** {!open_report_to_string} plus per-op counts and the accuracy-vs-
    truth line. *)

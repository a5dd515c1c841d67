(** Blocking client for the estimate server.

    A client owns one lazily-established connection to a {!Wire.address}
    and exchanges one frame per call.  Transient transport failures —
    the server not up yet, a connection lost between requests, a read
    timeout — are retried up to [config.retries] times with
    exponentially-capped full jitter (deterministic from [config.seed]);
    typed server errors ([overloaded], [draining], ...) are returned as
    {!error.Server} and never retried, so backpressure reaches the
    caller intact.  Retries make every call at-least-once: that is exact
    for the idempotent operations (estimates are reads, invalidate
    re-marks, observe is a converging refinement) but {!insert} may
    offer its values twice if a reply is lost — acceptable for sampling,
    noted in {!Wire.request.Insert}.  A reply frame that is truncated or
    oversized is a {!error.Protocol} error and closes the connection (the
    stream is no longer frame-aligned), so the next call reconnects.  A
    client is single-threaded: give each load-generator worker its own. *)

type config = {
  connect_timeout_s : float;  (** non-blocking connect + select window *)
  read_timeout_s : float;
      (** per-reply receive timeout ([SO_RCVTIMEO]); [0.] waits forever *)
  retries : int;  (** reconnect-and-resend attempts after the first try *)
  backoff_s : float;  (** base of the exponential jittered backoff *)
  seed : int64;  (** jitter PRNG seed, for reproducible retry schedules *)
}

val default_config : config
(** [{ connect_timeout_s = 1.0; read_timeout_s = 5.0; retries = 2;
      backoff_s = 0.02; seed = 0x5e1ec11e47L }]. *)

type error =
  | Transport of string
      (** could not reach the server, or lost it mid-exchange, after
          exhausting the retry budget *)
  | Server of Wire.error_code * string
      (** the server answered with a typed {!Wire.response.Error_reply} *)
  | Protocol of string
      (** the server answered with bytes this client cannot accept: an
          undecodable payload or a reply of the wrong kind *)

val error_to_string : error -> string
(** One-line rendering, e.g. ["server overloaded: 64 requests in flight
    (limit 64)"]. *)

type t

val create : ?config:config -> Wire.address -> t
(** A client handle; no I/O happens until the first call. *)

val connect : ?config:config -> Wire.address -> (t, error) result
(** {!create} followed by a {!ping}, so failure to reach the server is
    reported here rather than on the first real request. *)

val close : t -> unit
(** Close the underlying connection, if one is open.  The handle remains
    usable — the next call reconnects. *)

val ping : t -> (unit, error) result
(** Liveness probe; answered even while the server is draining. *)

val ls : t -> (Wire.entry_info list, error) result
(** The served entries with spec, staleness and domain, sorted by name. *)

val estimate : ?spec:string -> t -> entry:string -> a:float -> b:float -> (float, error) result
(** One range-selectivity query [Q(a,b)].  [spec] pins the estimator spec
    the entry must have been built with ([Server Spec_mismatch]
    otherwise); omitted or [""] accepts any. *)

val batch_estimate : t -> (string * float * float) array -> (float array, error) result
(** Many [(entry, a, b)] queries in one frame; answers come back in
    request order.  [Protocol] if the reply count disagrees with the
    query count. *)

val estimate_rect :
  t ->
  entry:string ->
  x_lo:float ->
  x_hi:float ->
  y_lo:float ->
  y_hi:float ->
  (float, error) result
(** One rectangle-selectivity query [[x_lo, x_hi] x [y_lo, y_hi]]
    against a rect entry; the answer is bit-identical to
    [Multidim.Hist2d.selectivity] on the served summary.  [Server
    Bad_request] against an entry of another kind. *)

val estimate_join :
  t -> entry:string -> pred:Selest.Stored.join_pred -> (float, error) result
(** One join-size query against a join entry: the estimated number of
    result pairs of [R JOIN_pred S] (a size, not a selectivity),
    bit-identical to [Join.Ineqjoin.estimate] on the served summary.
    [Server Bad_request] against an entry of another kind. *)

val invalidate : t -> string -> (unit, error) result
(** Force-stale a served entry, as [Catalog.Service.invalidate]. *)

val insert : t -> entry:string -> float array -> (int * int, error) result
(** Stream freshly inserted attribute values into the entry's reservoir
    sample on an adaptive server; returns [(sampled, seen)] — current
    reservoir occupancy and lifetime offered count.  At-least-once under
    retries (see the module preamble); [Server Bad_request] when the
    server is not adaptive. *)

val observe : t -> entry:string -> a:float -> b:float -> actual:float -> (float, error) result
(** Feed back the true selectivity [actual] of an executed query
    [Q(a,b)], refining the entry's ST-histogram on an adaptive server;
    returns the refined in-memory estimate for the same range. *)

val request : t -> Wire.request -> (Wire.response, error) result
(** Send any request and return the raw decoded reply (including
    [Error_reply], which the typed wrappers convert to {!error.Server});
    the load generator's one exchange path. *)

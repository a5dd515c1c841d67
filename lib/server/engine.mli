(** The concurrent estimate server: socket front end over one
    [Catalog.Service].

    One thread calls {!serve} and runs the accept loop; each connection
    gets a thread that reads, decodes and evaluates its requests and
    writes the replies.  Evaluation runs under one catalog mutex (the
    service is single-owner by contract) through the same
    [Catalog.Service] calls a direct caller makes, so a served estimate
    is bit-identical to a direct [answer] call on the same snapshot
    directory, whatever the interleaving of clients.  Replies are
    written after the mutex is released.  Connections reuse their
    staging arrays, decode scratch, [Wire.reader] and [Wire.writer], so
    the steady-state single-estimate path allocates no fresh buffers
    (see [docs/PERFORMANCE.md] for the allocation budget).

    Overload and shutdown are typed protocol replies, not dropped
    connections: admission control answers [Overloaded] the moment
    [max_inflight] is reached, a request that waited for the catalog
    past [deadline_s] answers [Timeout], an evaluation that raises
    answers [Internal], and a drain ({!initiate_drain} or SIGTERM via
    {!install_sigterm}) refuses new work with [Draining] while every
    in-flight request completes and its reply is written before
    {!serve} returns.  Semantics and tuning guidance live in
    [docs/SERVING.md]. *)

type config = {
  jobs : int;  (** no effect; kept so existing configurations still build *)
  max_inflight : int;
      (** admission-control limit: requests being evaluated or waiting
          for the catalog; at the limit new requests get an immediate
          [Overloaded] reply.  [0] refuses everything — useful for
          testing backpressure. *)
  max_batch : int;  (** no effect; kept so existing configurations still build *)
  deadline_s : float;
      (** a request that has waited longer than this (from its decode
          to the moment it holds the catalog) gets a [Timeout] reply
          instead of an answer; [0.] disables deadlines *)
  accept_backlog : int;  (** listen(2) backlog of not-yet-accepted connections *)
  tick_s : float;
      (** accept-loop poll interval; bounds how stale the drain flag can
          go unnoticed, and how long a finished adaptive rebuild waits
          to be swapped in on an idle server *)
  dispatch_delay_s : float;
      (** artificial pause under the catalog mutex before each
          evaluation — [0.] in production; tests raise it to make
          timeout and drain windows deterministic *)
}

val default_config : config
(** [{ jobs = 1; max_inflight = 64; max_batch = 64; deadline_s = 5.0;
      accept_backlog = 64; tick_s = 0.02; dispatch_delay_s = 0.0 }]. *)

type stats = {
  connections : int;  (** connections accepted *)
  requests : int;  (** frames decoded into well-formed requests *)
  answered : int;  (** range, rect and join queries answered with an estimate *)
  overloaded : int;  (** requests refused by admission control *)
  timeouts : int;  (** requests expired past their deadline *)
  refused_draining : int;  (** requests refused because a drain had begun *)
  protocol_errors : int;  (** malformed frames or payloads received *)
  batches : int;
      (** [Catalog.Service.answer_into] calls: one per [estimate] or
          [batch_estimate] request evaluated *)
  batched_queries : int;  (** range queries evaluated through those calls *)
  swaps : int;
      (** adaptive summary versions swapped in (rebuilds and feedback
          refreshes; [0] unless the service was
          {!Catalog.Service.enable_adaptive}d) *)
}

type t

val create : ?config:config -> service:Catalog.Service.t -> Wire.address -> t
(** [create ~service address] binds and listens on [address] (an
    existing Unix-socket path is removed first; TCP sockets get
    [SO_REUSEADDR]).  The server takes ownership of [service]: no other
    thread may touch it until {!serve} returns.
    @raise Invalid_argument on a negative [max_inflight], a
    non-positive [accept_backlog] or [tick_s].
    @raise Unix.Unix_error if the address cannot be bound. *)

val serve : t -> unit
(** Run the server on the calling thread.  Blocks until a drain is
    initiated, then: stops accepting (the listen socket closes, so new
    connects are refused at the socket layer), answers every in-flight
    request and writes its reply, waits (at most 50 [tick_s]) for the
    connections to go quiet so late requests get their typed [Draining]
    refusals, finishes any in-flight adaptive rebuild, closes the
    remaining connections, and returns.  Spawns systhreads only, never
    a domain.  Call at most once per {!t}. *)

val initiate_drain : t -> unit
(** Begin graceful shutdown.  Only sets an atomic flag — safe from any
    thread and from inside a signal handler. *)

val install_sigterm : t -> unit
(** Route SIGTERM to {!initiate_drain}, replacing any previous handler. *)

val draining : t -> bool
(** Whether a drain has been initiated. *)

val address : t -> Wire.address
(** The address {!create} was given. *)

val bound_port : t -> int option
(** The actual TCP port after binding — useful when {!create} was given
    port [0] to let the kernel choose.  [None] for Unix-domain sockets. *)

val stats : t -> stats
(** Lifetime counters, readable from any thread at any time (each field
    is an independent atomic; the snapshot is not cross-field
    consistent).  The same counts flow into the [Telemetry] registry as
    [server_*] metrics when telemetry is enabled. *)

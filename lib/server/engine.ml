(* The concurrent estimate server, evaluating on its connection threads.

   Thread architecture: the thread calling [serve] runs the accept loop
   (a [select] tick, so the drain flag is noticed promptly and an idle
   adaptive server still reaps its background rebuilds); each accepted
   connection gets a thread that reads a frame, decodes it, evaluates it
   and writes the reply itself.  The catalog service is single-owner by
   contract (its LRU cache mutates on reads), so evaluation runs under
   one catalog mutex, and the reply is written after the mutex is
   released.  A served estimate is a few array lookups against tens of
   microseconds of socket round trip, so handing requests to a separate
   evaluator would cost more than it could save (docs/SERVING.md has the
   measurements).

   Each request is answered through the same [Catalog.Service] call a
   direct caller makes, so served bits are identical to direct answers
   whatever the interleaving of clients.  Each connection reuses its
   [Wire.reader], [Wire.writer], decode scratch and structure-of-arrays
   staging arrays, so a steady-state single estimate costs no fresh
   buffers.

   Backpressure is admission control on arrival: once [max_inflight]
   requests are in flight (evaluating, or waiting for the mutex) the
   connection thread answers [Overloaded] immediately.  A request that
   waited for the mutex past [deadline_s] is answered [Timeout] without
   evaluation, and one whose evaluation raises gets the typed [Internal]
   error.  A drain (SIGTERM or [initiate_drain]) stops the accept loop,
   answers new requests [Draining], lets every in-flight request finish
   and its reply be written, waits for the connections to go quiet,
   finishes any in-flight adaptive rebuild, then closes all sockets. *)

module Service = Catalog.Service

type config = {
  jobs : int;
  max_inflight : int;
  max_batch : int;
  deadline_s : float;
  accept_backlog : int;
  tick_s : float;
  dispatch_delay_s : float;
}

let default_config =
  {
    jobs = 1;
    max_inflight = 64;
    max_batch = 64;
    deadline_s = 5.0;
    accept_backlog = 64;
    tick_s = 0.02;
    dispatch_delay_s = 0.0;
  }

type stats = {
  connections : int;
  requests : int;
  answered : int;
  overloaded : int;
  timeouts : int;
  refused_draining : int;
  protocol_errors : int;
  batches : int;
  batched_queries : int;
  swaps : int;
}

type t = {
  service : Service.t;
  catalog_m : Mutex.t; (* held for every touch of [service] *)
  config : config;
  address : Wire.address;
  listen_fd : Unix.file_descr;
  draining : bool Atomic.t;
  inflight : int Atomic.t;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  conns_m : Mutex.t;
  conn_seq : int Atomic.t;
  s_connections : int Atomic.t;
  s_requests : int Atomic.t;
  s_answered : int Atomic.t;
  s_overloaded : int Atomic.t;
  s_timeouts : int Atomic.t;
  s_refused_draining : int Atomic.t;
  s_protocol_errors : int Atomic.t;
  s_batches : int Atomic.t;
  s_batched_queries : int Atomic.t;
  s_swaps : int Atomic.t;
  m_connections : Telemetry.Metrics.counter;
  m_requests : Telemetry.Metrics.counter;
  m_overloaded : Telemetry.Metrics.counter;
  m_timeouts : Telemetry.Metrics.counter;
  m_batches : Telemetry.Metrics.counter;
  m_batched_queries : Telemetry.Metrics.counter;
  m_request_seconds : Telemetry.Metrics.histogram;
}

let create ?(config = default_config) ~service address =
  Wire.ignore_sigpipe ();
  if config.max_inflight < 0 then
    invalid_arg "Server.Engine.create: max_inflight must be >= 0";
  if config.accept_backlog < 1 then
    invalid_arg "Server.Engine.create: accept_backlog must be >= 1";
  if config.tick_s <= 0.0 then invalid_arg "Server.Engine.create: tick_s must be > 0";
  let listen_fd =
    match address with
    | Wire.Unix_socket path ->
      (* A path left behind by a dead server would make bind fail; a live
         server on the same path is indistinguishable, so serving twice
         from one path is the caller's responsibility. *)
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
    | Wire.Tcp _ as a ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Wire.sockaddr_of_address a);
      fd
  in
  Unix.listen listen_fd config.accept_backlog;
  let labels = [ ("addr", Wire.address_to_string address) ] in
  {
    service;
    catalog_m = Mutex.create ();
    config;
    address;
    listen_fd;
    draining = Atomic.make false;
    inflight = Atomic.make 0;
    conns = Hashtbl.create 64;
    conns_m = Mutex.create ();
    conn_seq = Atomic.make 0;
    s_connections = Atomic.make 0;
    s_requests = Atomic.make 0;
    s_answered = Atomic.make 0;
    s_overloaded = Atomic.make 0;
    s_timeouts = Atomic.make 0;
    s_refused_draining = Atomic.make 0;
    s_protocol_errors = Atomic.make 0;
    s_batches = Atomic.make 0;
    s_batched_queries = Atomic.make 0;
    s_swaps = Atomic.make 0;
    m_connections =
      Telemetry.Metrics.counter "server_connections_total" ~labels
        ~help:"Connections accepted by the estimate server";
    m_requests =
      Telemetry.Metrics.counter "server_requests_total" ~labels
        ~help:"Frames decoded into requests";
    m_overloaded =
      Telemetry.Metrics.counter "server_overloaded_total" ~labels
        ~help:"Requests refused by admission control";
    m_timeouts =
      Telemetry.Metrics.counter "server_timeouts_total" ~labels
        ~help:"Requests expired past their deadline before evaluation";
    m_batches =
      Telemetry.Metrics.counter "server_batches_total" ~labels
        ~help:"Service.answer_into calls issued by the engine";
    m_batched_queries =
      Telemetry.Metrics.counter "server_batched_queries_total" ~labels
        ~help:"Range queries evaluated through those calls";
    m_request_seconds =
      Telemetry.Metrics.histogram "server_request_seconds" ~labels
        ~help:"Latency from frame decode to reply written";
  }

let address t = t.address

let bound_port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

let stats t =
  {
    connections = Atomic.get t.s_connections;
    requests = Atomic.get t.s_requests;
    answered = Atomic.get t.s_answered;
    overloaded = Atomic.get t.s_overloaded;
    timeouts = Atomic.get t.s_timeouts;
    refused_draining = Atomic.get t.s_refused_draining;
    protocol_errors = Atomic.get t.s_protocol_errors;
    batches = Atomic.get t.s_batches;
    batched_queries = Atomic.get t.s_batched_queries;
    swaps = Atomic.get t.s_swaps;
  }

let draining t = Atomic.get t.draining

(* Only an atomic store, so it is safe inside a signal handler; the
   accept loop and connection threads poll the flag. *)
let initiate_drain t = Atomic.set t.draining true

let install_sigterm t =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> initiate_drain t))

(* ---------------- evaluation (under [catalog_m]) ---------------- *)

(* Per-connection state, reused across requests: frame I/O buffers, the
   decode scratch, and structure-of-arrays staging for [answer_into]
   (grown geometrically, never shrunk). *)
type conn = {
  fd : Unix.file_descr;
  w : Wire.writer;
  r : Wire.reader;
  sc : Wire.scratch;
  mutable names : string array;
  mutable qa : float array;
  mutable qb : float array;
  mutable out : float array;
}

let error_reply code message = Wire.Error_reply { code; message }
let unknown_entry name =
  error_reply Wire.Unknown_entry (Printf.sprintf "unknown catalog entry %S" name)

(* A rect or join query the service refused: an unknown entry is the
   usual typed refusal, a wrong-kind entry is the caller's mistake. *)
let query_refusal t entry message =
  error_reply
    (if Service.mem t.service entry then Wire.Bad_request else Wire.Unknown_entry)
    message

(* A range query against anything but a range entry: unknown entries
   get the usual typed refusal, a rect or join entry is the caller's
   mistake. *)
let range_refusal t entry =
  match Service.info t.service entry with
  | None -> unknown_entry entry
  | Some i ->
    error_reply Wire.Bad_request
      (Printf.sprintf "catalog entry %S is a %s entry, not range" entry
         (Selest.Stored.kind_name i.Service.kind))

(* An insert or observe the service refused: without adaptivity every
   write is a bad request, whatever the entry. *)
let write_refusal t entry message =
  error_reply
    (if Service.adaptive_enabled t.service && not (Service.mem t.service entry) then
       Wire.Unknown_entry
     else Wire.Bad_request)
    message

let ensure_capacity c n =
  if Array.length c.names < n then begin
    let cap = ref (Array.length c.names) in
    while !cap < n do
      cap := 2 * !cap
    done;
    c.names <- Array.make !cap "";
    c.qa <- Array.make !cap 0.0;
    c.qb <- Array.make !cap 0.0;
    c.out <- Array.make !cap 0.0
  end

(* Answer the [n] range queries staged in [c] with one [answer_into]
   call — one "batch" in the drain report. *)
let answer_staged t c n =
  Service.answer_into t.service ~n ~names:c.names ~a:c.qa ~b:c.qb ~out:c.out;
  Atomic.incr t.s_batches;
  ignore (Atomic.fetch_and_add t.s_batched_queries n);
  ignore (Atomic.fetch_and_add t.s_answered n);
  Telemetry.Metrics.incr t.m_batches;
  Telemetry.Metrics.add t.m_batched_queries n

(* The hot path: the decoded fields move from the scratch into slot 0
   of the staging arrays (string refs and unboxed float stores), so a
   resident single estimate allocates nothing before its reply value. *)
let estimate t c =
  let sc = c.sc in
  let entry = sc.Wire.s_entry in
  if not (Service.is_kind t.service entry Selest.Stored.Range_kind) then
    range_refusal t entry
  else if
    sc.Wire.s_spec <> ""
    &&
    match Service.info t.service entry with
    | Some i -> i.Service.spec <> sc.Wire.s_spec
    | None -> false
  then
    error_reply Wire.Spec_mismatch
      (Printf.sprintf "entry was not built with spec %S" sc.Wire.s_spec)
  else begin
    Array.unsafe_set c.names 0 entry;
    Array.unsafe_set c.qa 0 sc.Wire.s_q.Wire.sa;
    Array.unsafe_set c.qb 0 sc.Wire.s_q.Wire.sb;
    answer_staged t c 1;
    Wire.Estimate_reply (Array.unsafe_get c.out 0)
  end

let ls_reply t =
  Wire.Ls_reply
    (List.map
       (fun (i : Service.info) ->
         {
           Wire.name = i.Service.name;
           spec = i.Service.spec;
           cells = i.Service.cells;
           stale = i.Service.stale;
           domain = i.Service.domain;
           kind = i.Service.kind;
           domain_y = i.Service.domain_y;
         })
       (Service.infos t.service))

let answer t c incoming =
  match incoming with
  | Wire.Fast_estimate -> estimate t c
  | Wire.Decoded req -> (
    match req with
    | Wire.Estimate { entry; a; b; spec } ->
      (* The serving decoder delivers every estimate as [Fast_estimate];
         a decoded one takes the same path through the scratch. *)
      c.sc.Wire.s_entry <- entry;
      c.sc.Wire.s_spec <- spec;
      c.sc.Wire.s_q.Wire.sa <- a;
      c.sc.Wire.s_q.Wire.sb <- b;
      estimate t c
    | Wire.Batch_estimate triples -> (
      match
        Array.find_opt
          (fun (name, _, _) -> not (Service.is_kind t.service name Selest.Stored.Range_kind))
          triples
      with
      | Some (name, _, _) -> range_refusal t name
      | None ->
        let n = Array.length triples in
        ensure_capacity c n;
        Array.iteri
          (fun i (name, qa, qb) ->
            c.names.(i) <- name;
            c.qa.(i) <- qa;
            c.qb.(i) <- qb)
          triples;
        answer_staged t c n;
        Wire.Batch_reply (Array.sub c.out 0 n))
    | Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi } -> (
      (* The same [Selest.Stored.rect_selectivity] a direct
         [Multidim.Hist2d] call uses, so the served bits are identical by
         construction. *)
      match Service.answer_rect t.service ~name:entry ~x_lo ~x_hi ~y_lo ~y_hi with
      | Ok v ->
        Atomic.incr t.s_answered;
        Wire.Estimate_reply v
      | Error message -> query_refusal t entry message)
    | Wire.Estimate_join { entry; pred } -> (
      match Service.answer_join t.service ~name:entry ~pred with
      | Ok v ->
        Atomic.incr t.s_answered;
        Wire.Estimate_reply v
      | Error message -> query_refusal t entry message)
    | Wire.Insert { entry; values } -> (
      match Service.insert t.service ~name:entry values with
      | Ok (sampled, seen) -> Wire.Inserted { sampled; seen }
      | Error message -> write_refusal t entry message)
    | Wire.Observe { entry; a; b; actual } -> (
      match Service.observe t.service ~name:entry ~a ~b ~actual with
      | Ok refined -> Wire.Observed refined
      | Error message -> write_refusal t entry message)
    | Wire.Invalidate name -> (
      match Service.invalidate t.service name with
      | Ok () -> Wire.Invalidated
      | Error message -> error_reply Wire.Unknown_entry message)
    | Wire.Ls -> ls_reply t
    | Wire.Ping -> Wire.Pong)

(* Adaptive maintenance: reap a finished background rebuild, apply due
   feedback refreshes, launch the next rebuild.  The caller holds
   [catalog_m].  An exception from the tick (a snapshot write failing
   mid-swap) is dropped here: it must neither leave the mutex held nor
   fail the request that happened to run the tick. *)
let maintain t =
  match Service.adaptive_tick t.service with
  | 0 -> ()
  | swaps -> ignore (Atomic.fetch_and_add t.s_swaps swaps)
  | exception _ -> ()

(* Evaluate one admitted request under the catalog mutex, followed by a
   maintenance tick.  [arrived] is when its frame was decoded: a request
   that waited for the mutex past the deadline is refused unevaluated.
   Explicit matches rather than [Fun.protect], so the hot path builds no
   closures. *)
let evaluate t c ~arrived incoming =
  Mutex.lock t.catalog_m;
  if t.config.dispatch_delay_s > 0.0 then Unix.sleepf t.config.dispatch_delay_s;
  let waited = Unix.gettimeofday () -. arrived in
  let reply =
    if t.config.deadline_s > 0.0 && waited > t.config.deadline_s then begin
      Atomic.incr t.s_timeouts;
      Telemetry.Metrics.incr t.m_timeouts;
      error_reply Wire.Timeout
        (Printf.sprintf "request waited %.3fs for the catalog, past the %.3fs deadline"
           waited t.config.deadline_s)
    end
    else
      match answer t c incoming with
      | reply -> reply
      | exception e -> error_reply Wire.Internal (Printexc.to_string e)
  in
  maintain t;
  Mutex.unlock t.catalog_m;
  reply

(* ---------------- connection threads ---------------- *)

(* Admission, evaluation, reply.  The slot is taken before the drain
   flag is read, so once [serve] has seen the flag with [inflight = 0],
   every later request is refused without touching the catalog; it is
   released after the reply is written, which is what lets the drain
   sequence equate "inflight = 0" with "every admitted request was
   answered". *)
let handle t c ~arrived incoming =
  match incoming with
  | Wire.Decoded Wire.Ping -> Wire.write_response c.w c.fd Wire.Pong
  | _ -> (
    let prev = Atomic.fetch_and_add t.inflight 1 in
    let reply =
      if Atomic.get t.draining then begin
        Atomic.incr t.s_refused_draining;
        error_reply Wire.Draining "server is draining"
      end
      else if prev >= t.config.max_inflight then begin
        Atomic.incr t.s_overloaded;
        Telemetry.Metrics.incr t.m_overloaded;
        error_reply Wire.Overloaded
          (Printf.sprintf "%d requests in flight (limit %d)" prev t.config.max_inflight)
      end
      else evaluate t c ~arrived incoming
    in
    match Wire.write_response c.w c.fd reply with
    | () -> Atomic.decr t.inflight
    | exception e ->
      Atomic.decr t.inflight;
      raise e)

let conn_loop t fd =
  let c =
    {
      fd;
      w = Wire.create_writer ();
      r = Wire.create_reader ();
      sc = Wire.create_scratch ();
      names = Array.make 16 "";
      qa = Array.make 16 0.0;
      qb = Array.make 16 0.0;
      out = Array.make 16 0.0;
    }
  in
  let rec loop () =
    let len = Wire.read_frame_into c.r fd in
    if len = -1 then () (* clean EOF at a frame boundary *)
    else if len = -2 then begin
      (* The stream is no longer frame-aligned: reply if possible, then
         hang up. *)
      Atomic.incr t.s_protocol_errors;
      try Wire.write_response c.w fd (error_reply Wire.Bad_request (Wire.reader_error c.r))
      with _ -> ()
    end
    else
      match Wire.decode_request_scratch (Wire.reader_buffer c.r) ~len c.sc with
      | Error message ->
        (* Frame boundaries are intact, so the connection survives a
           malformed payload. *)
        Atomic.incr t.s_protocol_errors;
        Wire.write_response c.w fd (error_reply Wire.Bad_request message);
        loop ()
      | Ok incoming ->
        Atomic.incr t.s_requests;
        Telemetry.Metrics.incr t.m_requests;
        let arrived = Unix.gettimeofday () in
        handle t c ~arrived incoming;
        Telemetry.Metrics.observe_s t.m_request_seconds (Unix.gettimeofday () -. arrived);
        loop ()
  in
  try loop () with
  | Unix.Unix_error _ | Sys_error _ -> ()

let conn_thread t id fd () =
  conn_loop t fd;
  Mutex.lock t.conns_m;
  Hashtbl.remove t.conns id;
  (* Closed under the registry lock so the drain sequence can never
     shut down a descriptor that was already closed and reused. *)
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.unlock t.conns_m

(* ---------------- serve ---------------- *)

(* Each pass also runs a maintenance tick, so a background rebuild
   lands within [tick_s] of finishing even when no request arrives.
   [try_lock]: accepting must never wait behind an evaluation, and a
   request holding the mutex ticks itself when it finishes. *)
let accept_loop t =
  while not (Atomic.get t.draining) do
    (match Unix.select [ t.listen_fd ] [] [] t.config.tick_s with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ ->
        Atomic.incr t.s_connections;
        Telemetry.Metrics.incr t.m_connections;
        let id = Atomic.fetch_and_add t.conn_seq 1 in
        Mutex.lock t.conns_m;
        let th = Thread.create (conn_thread t id fd) () in
        Hashtbl.replace t.conns id (fd, th);
        Mutex.unlock t.conns_m
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if Mutex.try_lock t.catalog_m then begin
      maintain t;
      Mutex.unlock t.catalog_m
    end
  done

(* Bounds how long a drain waits for chatty clients to go quiet: 1 s at
   the default [tick_s]. *)
let linger_ticks = 50

let serve t =
  accept_loop t;
  (* Drain, phase 1: stop admitting connections.  New connects are
     refused at the socket layer from here on. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.address with
  | Wire.Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Wire.Tcp _ -> ());
  (* Phase 2: every admitted request finishes and its reply is written
     (requests arriving during this window get the typed Draining
     reply). *)
  let quiesce () =
    while Atomic.get t.inflight > 0 do
      Thread.delay 0.005
    done
  in
  quiesce ();
  (* Phase 3: linger until the connections go quiet — a [tick_s] with no
     request decoded, for at most [linger_ticks] ticks — so a client
     still sending gets its typed Draining refusals rather than a hangup
     mid-exchange, and let the last refusals be written. *)
  let rec linger n =
    let seen = Atomic.get t.s_requests in
    Thread.delay t.config.tick_s;
    if n > 1 && Atomic.get t.s_requests <> seen then linger (n - 1)
  in
  linger linger_ticks;
  quiesce ();
  (* Phase 4: finish (don't abandon) any in-flight adaptive rebuild, so
     its swap is persisted, then unblock idle readers. *)
  Mutex.lock t.catalog_m;
  (try Service.adaptive_drain t.service with _ -> ());
  Mutex.unlock t.catalog_m;
  Mutex.lock t.conns_m;
  let remaining = Hashtbl.fold (fun _ conn acc -> conn :: acc) t.conns [] in
  List.iter
    (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    remaining;
  Mutex.unlock t.conns_m;
  List.iter (fun (_, th) -> Thread.join th) remaining

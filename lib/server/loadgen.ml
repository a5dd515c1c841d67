type group = {
  g_n : int;
  g_p50_ms : float;
  g_p99_ms : float;
}

type summary = {
  ok : int;
  errors : (string * int) list;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  groups : (string * group) list;
}

type report = {
  connections : int;
  queries : int;
  wall_s : float;
  throughput_qps : float;
  summary : summary;
  replies : Wire.response option array;
}

let request_kind = function
  | Wire.Estimate _ | Wire.Batch_estimate _ -> "range"
  | Wire.Estimate_rect _ -> "rect"
  | Wire.Estimate_join _ -> "join"
  | Wire.Insert _ -> "insert"
  | Wire.Observe _ -> "observe"
  | Wire.Invalidate _ -> "invalidate"
  | Wire.Ls -> "ls"
  | Wire.Ping -> "ping"

let synthetic_requests ~entries ~count ~seed =
  if entries = [] then invalid_arg "Server.Loadgen.synthetic_requests: no entries";
  if count < 0 then invalid_arg "Server.Loadgen.synthetic_requests: count < 0";
  let pool = Array.of_list entries in
  let rng = Prng.Splitmix64.create seed in
  (* Two uniform endpoints over [lo, hi], drawn in this order, sorted. *)
  let span lo hi =
    let x = lo +. ((hi -. lo) *. Prng.Splitmix64.next_float rng) in
    let y = lo +. ((hi -. lo) *. Prng.Splitmix64.next_float rng) in
    (Float.min x y, Float.max x y)
  in
  Array.init count (fun _ ->
      let e = pool.(Prng.Splitmix64.next_below rng (Array.length pool)) in
      let entry = e.Wire.name in
      let lo, hi = e.Wire.domain in
      match e.Wire.kind with
      | Selest.Stored.Range_kind ->
        let a, b = span lo hi in
        Wire.Estimate { entry; a; b; spec = "" }
      | Selest.Stored.Rect_kind ->
        let ylo, yhi = Option.value ~default:e.Wire.domain e.Wire.domain_y in
        let x_lo, x_hi = span lo hi in
        let y_lo, y_hi = span ylo yhi in
        Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi }
      | Selest.Stored.Join_kind ->
        let pred =
          match Prng.Splitmix64.next_below rng 3 with
          | 0 -> Selest.Stored.Join_eq
          | 1 -> Selest.Stored.Join_lt
          | _ -> Selest.Stored.Join_le
        in
        Wire.Estimate_join { entry; pred })

(* ---------------- one exchange, one summary ---------------- *)

type metrics = {
  m_queries : Telemetry.Metrics.counter;
  m_latency : Telemetry.Metrics.histogram;
  m_dropped : Telemetry.Metrics.counter;
  m_late : Telemetry.Metrics.counter;
}

let metrics =
  lazy
    {
      m_queries =
        Telemetry.Metrics.counter "loadgen_queries_total"
          ~help:"Queries issued by the load generator";
      m_latency =
        Telemetry.Metrics.histogram "loadgen_latency_seconds"
          ~help:"Round-trip latency of load-generator exchanges";
      m_dropped =
        Telemetry.Metrics.counter "loadgen_dropped_total"
          ~help:"Open-loop arrivals dropped: every virtual client was busy";
      m_late =
        Telemetry.Metrics.counter "loadgen_late_total"
          ~help:"Open-loop exchanges that started more than one inter-arrival late";
    }

(* One worker's measurements, merged by [summarize] after the run
   (workers are threads; sharing one record would race). *)
type worker_out = {
  mutable w_samples : (string * float) list;  (** per-exchange (kind, latency) *)
  mutable w_ok : int;
  mutable w_errors : (string * int) list;
}

let fresh_out () = { w_samples = []; w_ok = 0; w_errors = [] }

let bump counts cls n =
  match List.assoc_opt cls counts with
  | Some m -> (cls, m + n) :: List.remove_assoc cls counts
  | None -> (cls, n) :: counts

let error_class = function
  | Client.Transport _ -> "transport"
  | Client.Protocol _ -> "protocol"
  | Client.Server (code, _) -> Wire.error_code_to_string code

(* Whether [reply] answers [req]; anything else is a protocol error. *)
let fits req reply =
  match (req, reply) with
  | (Wire.Estimate _ | Wire.Estimate_rect _ | Wire.Estimate_join _), Wire.Estimate_reply _
  | Wire.Insert _, Wire.Inserted _
  | Wire.Observe _, Wire.Observed _
  | Wire.Invalidate _, Wire.Invalidated
  | Wire.Ls, Wire.Ls_reply _
  | Wire.Ping, Wire.Pong ->
    true
  | Wire.Batch_estimate triples, Wire.Batch_reply xs -> Array.length xs = Array.length triples
  | _ -> false

(* Send [req] — a frame carrying [n] requests — and record the exchange:
   its latency from [since] under the request's kind, and either [n]
   answered requests or one failure of its class.  Returns the reply
   when it answers the request. *)
let exchange client out ~since ~n req =
  let result = Client.request client req in
  let dt = Unix.gettimeofday () -. since in
  let m = Lazy.force metrics in
  out.w_samples <- (request_kind req, dt) :: out.w_samples;
  Telemetry.Metrics.add m.m_queries n;
  Telemetry.Metrics.observe_s m.m_latency dt;
  let fail cls =
    out.w_errors <- bump out.w_errors cls 1;
    None
  in
  match result with
  | Ok reply when fits req reply ->
    out.w_ok <- out.w_ok + n;
    Some reply
  | Ok (Wire.Error_reply { code; _ }) -> fail (Wire.error_code_to_string code)
  | Ok _ -> fail "protocol"
  | Error e -> fail (error_class e)

(* Exact q-quantile of a sorted array: the smallest element with at
   least [ceil (q*n)] observations at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ms x = 1000.0 *. x

let sorted_latencies samples =
  let arr = Array.of_list (List.map snd samples) in
  Array.sort compare arr;
  arr

let summarize outs =
  let samples = Array.fold_left (fun acc o -> List.rev_append o.w_samples acc) [] outs in
  let latencies = sorted_latencies samples in
  let n = Array.length latencies in
  let by_kind = Hashtbl.create 8 in
  List.iter
    (fun ((kind, _) as s) ->
      Hashtbl.replace by_kind kind (s :: Option.value ~default:[] (Hashtbl.find_opt by_kind kind)))
    samples;
  let group_of samples =
    let arr = sorted_latencies samples in
    { g_n = Array.length arr; g_p50_ms = ms (percentile arr 0.50); g_p99_ms = ms (percentile arr 0.99) }
  in
  {
    ok = Array.fold_left (fun n o -> n + o.w_ok) 0 outs;
    errors =
      Array.fold_left
        (fun acc o -> List.fold_left (fun acc (cls, n) -> bump acc cls n) acc o.w_errors)
        [] outs
      |> List.sort compare;
    mean_ms =
      (if n > 0 then ms (Array.fold_left ( +. ) 0.0 latencies /. float_of_int n) else Float.nan);
    p50_ms = ms (percentile latencies 0.50);
    p95_ms = ms (percentile latencies 0.95);
    p99_ms = ms (percentile latencies 0.99);
    max_ms = (if n > 0 then ms latencies.(n - 1) else Float.nan);
    groups =
      Hashtbl.fold (fun kind s acc -> (kind, group_of s) :: acc) by_kind [] |> List.sort compare;
  }

let group_n s kind = match List.assoc_opt kind s.groups with Some g -> g.g_n | None -> 0

let add_summary b ~latency ~total s =
  Buffer.add_string b
    (Printf.sprintf "%s: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n" latency
       s.mean_ms s.p50_ms s.p95_ms s.p99_ms s.max_ms);
  Buffer.add_string b (Printf.sprintf "ok %d / %d" s.ok total);
  if s.errors <> [] then begin
    Buffer.add_string b "  errors:";
    List.iter (fun (cls, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" cls n)) s.errors
  end;
  List.iter
    (fun (kind, g) ->
      Buffer.add_string b
        (Printf.sprintf "\n%s: n %d  p50 %.3f  p99 %.3f" kind g.g_n g.g_p50_ms g.g_p99_ms))
    s.groups

(* Each worker's client gets a distinct seed so retry jitter
   decorrelates. *)
let client_for (config : Client.config) i address =
  Client.create ~config:{ config with seed = Int64.add config.seed (Int64.of_int i) } address

(* ---------------- closed loop ---------------- *)

(* The per-worker slice [i] of [total] items: contiguous, so workers can
   write their replies into disjoint ranges of one shared array. *)
let slice_bounds total workers i =
  let base = total / workers and rem = total mod workers in
  let start = (i * base) + min i rem in
  let len = base + if i < rem then 1 else 0 in
  (start, len)

(* The frame carrying the requests from [pos]: with [batch > 1], a run
   of up to [batch] consecutive unpinned estimates before [stop] travels
   as one [Batch_estimate]; anything else travels alone.  Returns the
   frame and how many requests it carries. *)
let next_frame requests ~batch ~pos ~stop =
  let triple i =
    match requests.(i) with
    | Wire.Estimate { entry; a; b; spec = "" } -> Some (entry, a, b)
    | _ -> None
  in
  let rec run n =
    if n < batch && pos + n < stop && Option.is_some (triple (pos + n)) then run (n + 1) else n
  in
  match run 0 with
  | n when n >= 2 -> (Wire.Batch_estimate (Array.init n (fun k -> Option.get (triple (pos + k)))), n)
  | _ -> (requests.(pos), 1)

let run ?(client_config = Client.default_config) ?(batch = 1) ~connections ~address requests =
  if connections < 1 then invalid_arg "Server.Loadgen.run: connections < 1";
  if batch < 1 then invalid_arg "Server.Loadgen.run: batch < 1";
  let total = Array.length requests in
  let replies = Array.make total None in
  let outs = Array.init connections (fun _ -> fresh_out ()) in
  let worker i () =
    let start, len = slice_bounds total connections i in
    let client = client_for client_config i address in
    let pos = ref start in
    while !pos < start + len do
      let frame, n = next_frame requests ~batch ~pos:!pos ~stop:(start + len) in
      (match exchange client outs.(i) ~since:(Unix.gettimeofday ()) ~n frame with
      | Some (Wire.Batch_reply xs) when n > 1 ->
        Array.iteri (fun k x -> replies.(!pos + k) <- Some (Wire.Estimate_reply x)) xs
      | reply -> replies.(!pos) <- reply);
      pos := !pos + n
    done;
    Client.close client
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init connections (fun i -> Thread.create (worker i) ()) in
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    connections;
    queries = total;
    wall_s;
    throughput_qps = (if wall_s > 0.0 then float_of_int total /. wall_s else 0.0);
    summary = summarize outs;
    replies;
  }

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%d queries over %d connections in %.3fs (%.0f q/s)\n" r.queries
       r.connections r.wall_s r.throughput_qps);
  add_summary b ~latency:"latency ms" ~total:r.queries r.summary;
  Buffer.contents b

(* ---------------- verification ---------------- *)

let direct_reply svc req =
  let refusal entry message =
    let code = if Catalog.Service.mem svc entry then Wire.Bad_request else Wire.Unknown_entry in
    Wire.Error_reply { code; message }
  in
  match req with
  | Wire.Estimate { entry; a; b; _ } -> (
    match Catalog.Service.answer svc [| (entry, a, b) |] with
    | xs -> Wire.Estimate_reply xs.(0)
    | exception Invalid_argument message -> refusal entry message)
  | Wire.Batch_estimate triples -> (
    match Catalog.Service.answer svc triples with
    | xs -> Wire.Batch_reply xs
    | exception Invalid_argument message -> Wire.Error_reply { code = Wire.Bad_request; message })
  | Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi } -> (
    match Catalog.Service.answer_rect svc ~name:entry ~x_lo ~x_hi ~y_lo ~y_hi with
    | Ok v -> Wire.Estimate_reply v
    | Error message -> refusal entry message)
  | Wire.Estimate_join { entry; pred } -> (
    match Catalog.Service.answer_join svc ~name:entry ~pred with
    | Ok v -> Wire.Estimate_reply v
    | Error message -> refusal entry message)
  | (Wire.Ping | Wire.Ls | Wire.Invalidate _ | Wire.Insert _ | Wire.Observe _) as other ->
    invalid_arg ("Server.Loadgen.direct_reply: not an estimate: " ^ Wire.request_to_string other)

let verify svc requests report =
  if Array.length requests <> Array.length report.replies then
    invalid_arg "Server.Loadgen.verify: requests and report differ in length";
  let checked = ref 0 and mismatched = ref 0 in
  Array.iteri
    (fun i req ->
      match report.replies.(i) with
      | None -> ()
      | Some served ->
        incr checked;
        if not (Wire.equal_response served (direct_reply svc req)) then incr mismatched)
    requests;
  (!checked, !mismatched)

(* ---------------- open loop ---------------- *)

type open_report = {
  rate_qps : float;
  duration_s : float;
  offered : int;
  sent : int;
  dropped : int;
  late : int;
  achieved_qps : float;
  o_summary : summary;
}

(* One virtual-client slot: a worker thread parked on its own condition
   until the scheduler hands it an arrival, plus its measurement
   accumulator. *)
type slot = {
  s_m : Mutex.t;
  s_c : Condition.t;
  mutable s_task : (int * float) option;  (* arrival index, scheduled arrival *)
  mutable s_stop : bool;
  s_out : worker_out;
  mutable s_late : int;
  mutable s_sent : int;
}

(* The open-loop machinery shared by {!run_open_loop} and {!run_drift}:
   schedule arrivals at [t0 + i/rate], hand each to a free virtual
   client (or drop it), send [request_of i] and pass an answering reply
   to [on_reply slot i request reply].  Lateness, latency-from-arrival
   and the scheduler's offered/dropped counters are measured here so
   every open-loop mode reports them the same way. *)
let open_loop_drive ~who ~client_config ~max_clients ~late_factor ~rate ~duration_s
    ~address ~request_of ~on_reply =
  if rate <= 0.0 then invalid_arg (who ^ ": rate must be > 0");
  if duration_s <= 0.0 then invalid_arg (who ^ ": duration_s must be > 0");
  if max_clients < 1 then invalid_arg (who ^ ": max_clients must be >= 1");
  let m = Lazy.force metrics in
  (* An exchange that could not start within this lag of its scheduled
     arrival counts as late: the generator (or the server's accept path)
     is slipping behind the arrival process. *)
  let late_threshold = late_factor /. rate in
  let slots =
    Array.init max_clients (fun _ ->
        {
          s_m = Mutex.create ();
          s_c = Condition.create ();
          s_task = None;
          s_stop = false;
          s_out = fresh_out ();
          s_late = 0;
          s_sent = 0;
        })
  in
  let free = Stack.create () in
  let free_m = Mutex.create () in
  for i = max_clients - 1 downto 0 do
    Stack.push i free
  done;
  let worker i () =
    let s = slots.(i) in
    let client = client_for client_config i address in
    let rec loop () =
      Mutex.lock s.s_m;
      while s.s_task = None && not s.s_stop do
        Condition.wait s.s_c s.s_m
      done;
      match s.s_task with
      | None -> Mutex.unlock s.s_m (* stop with no work assigned *)
      | Some (idx, sched) ->
        s.s_task <- None;
        Mutex.unlock s.s_m;
        if Unix.gettimeofday () -. sched > late_threshold then begin
          s.s_late <- s.s_late + 1;
          Telemetry.Metrics.incr m.m_late
        end;
        s.s_sent <- s.s_sent + 1;
        let req = request_of idx in
        (* Open-loop latency runs from the *scheduled* arrival, not the
           send: queueing delay born of the server falling behind the
           arrival process is the signal, and measuring from the send
           would hide exactly the collapse this mode exists to expose. *)
        (match exchange client s.s_out ~since:sched ~n:1 req with
        | Some reply -> on_reply i idx req reply
        | None -> ());
        Mutex.lock free_m;
        Stack.push i free;
        Mutex.unlock free_m;
        loop ()
    in
    loop ();
    Client.close client
  in
  let threads = Array.init max_clients (fun i -> Thread.create (worker i) ()) in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration_s in
  let offered = ref 0 in
  let dropped = ref 0 in
  let i = ref 0 in
  (let continue = ref true in
   while !continue do
     let sched = t0 +. (float_of_int !i /. rate) in
     if sched >= deadline then continue := false
     else begin
       let now = Unix.gettimeofday () in
       (* When behind schedule, dispatch immediately: arrivals never wait
          for the generator — that would close the loop. *)
       if sched > now then Thread.delay (sched -. now);
       incr offered;
       let slot =
         Mutex.lock free_m;
         let s = if Stack.is_empty free then None else Some (Stack.pop free) in
         Mutex.unlock free_m;
         s
       in
       (match slot with
       | None ->
         (* Every virtual client is mid-exchange: the arrival is dropped
            (and counted), not queued — queueing it would turn the fixed
            arrival process into a closed loop. *)
         incr dropped;
         Telemetry.Metrics.incr m.m_dropped
       | Some w ->
         let s = slots.(w) in
         Mutex.lock s.s_m;
         s.s_task <- Some (!i, sched);
         Condition.signal s.s_c;
         Mutex.unlock s.s_m);
       incr i
     end
   done);
  Array.iter
    (fun s ->
      Mutex.lock s.s_m;
      s.s_stop <- true;
      Condition.signal s.s_c;
      Mutex.unlock s.s_m)
    slots;
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let sent = Array.fold_left (fun n s -> n + s.s_sent) 0 slots in
  {
    rate_qps = rate;
    duration_s;
    offered = !offered;
    sent;
    dropped = !dropped;
    late = Array.fold_left (fun n s -> n + s.s_late) 0 slots;
    achieved_qps = (if wall_s > 0.0 then float_of_int sent /. wall_s else 0.0);
    o_summary = summarize (Array.map (fun s -> s.s_out) slots);
  }

let run_open_loop ?(client_config = Client.default_config) ?(max_clients = 64)
    ?(late_factor = 1.0) ~rate ~duration_s ~address requests =
  if Array.length requests = 0 then
    invalid_arg "Server.Loadgen.run_open_loop: no requests";
  open_loop_drive ~who:"Server.Loadgen.run_open_loop" ~client_config ~max_clients
    ~late_factor ~rate ~duration_s ~address
    ~request_of:(fun i -> requests.(i mod Array.length requests))
    ~on_reply:(fun _ _ _ _ -> ())

let open_report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "open loop: offered %d arrivals at %.0f/s over %.2fs — sent %d (%.0f/s achieved), \
        dropped %d, late %d\n"
       r.offered r.rate_qps r.duration_s r.sent r.achieved_qps r.dropped r.late);
  add_summary b ~latency:"latency from scheduled arrival, ms" ~total:r.sent r.o_summary;
  Buffer.contents b

(* ---------------- drift (adaptive serving) ---------------- *)

type drift_report = {
  d_open : open_report;
  d_estimates : int;
  d_est_ok : int;
  d_inserts : int;
  d_insert_ok : int;
  d_observes : int;
  d_observe_ok : int;
  d_mean_abs_err : float;
  d_max_abs_err : float;
  d_est_invalid : int;
}

(* Per-slot drift accumulator, merged after the run (slots are threads;
   sharing one record would race). *)
type drift_acc = {
  mutable da_est_ok : int;
  mutable da_ins_ok : int;
  mutable da_obs_ok : int;
  mutable da_err_sum : float;
  mutable da_err_max : float;
  mutable da_invalid : int;
}

let run_drift ?(client_config = Client.default_config) ?(max_clients = 64)
    ?(late_factor = 1.0) ?(insert_every = 4) ?(insert_batch = 32) ?(observe_every = 4)
    ?(window = 0.25) ?(seed = 0xd41f7L) ~rate ~duration_s ~entry ~address () =
  if insert_every < 2 then
    invalid_arg "Server.Loadgen.run_drift: insert_every must be >= 2";
  if insert_batch < 1 then
    invalid_arg "Server.Loadgen.run_drift: insert_batch must be >= 1";
  if observe_every < 2 then
    invalid_arg "Server.Loadgen.run_drift: observe_every must be >= 2";
  if not (window > 0.0 && window <= 1.0) then
    invalid_arg "Server.Loadgen.run_drift: window must be in (0, 1]";
  if entry.Wire.kind <> Selest.Stored.Range_kind then
    invalid_arg "Server.Loadgen.run_drift: entry is not a range entry";
  let name = entry.Wire.name in
  let lo, hi = entry.Wire.domain in
  let dom_w = hi -. lo in
  if not (dom_w > 0.0) then invalid_arg "Server.Loadgen.run_drift: empty entry domain";
  let win_w = window *. dom_w in
  (* The drift model: the relation's live values are Uniform over a
     window [win_w] wide whose center slides linearly from one end of
     the domain to the other across the run's scheduled arrivals.  The
     window position is a function of the arrival *index*, not the
     clock, so the stream (and the analytic truth below) is fully
     deterministic from [seed] and the run shape. *)
  let horizon = max 1 (int_of_float (Float.ceil (rate *. duration_s))) in
  let window_at arrival =
    let p =
      if horizon <= 1 then 0.0
      else float_of_int (min arrival (horizon - 1)) /. float_of_int (horizon - 1)
    in
    let c = lo +. (win_w /. 2.0) +. (p *. (dom_w -. win_w)) in
    (c -. (win_w /. 2.0), c +. (win_w /. 2.0))
  in
  (* True selectivity of Q(a,b) against the current window: the overlap
     fraction of a uniform distribution over [wl, wh]. *)
  let truth_at arrival a b =
    let wl, wh = window_at arrival in
    (* Clamped: when [a,b] covers the whole window, [wh -. wl] can land
       an ulp above [win_w] and the ratio a hair above 1, which the
       server's observe validation would (rightly) reject. *)
    Float.min 1.0 (Float.max 0.0 (Float.min b wh -. Float.max a wl) /. win_w)
  in
  (* Per-arrival PRNG: the payload of arrival [i] does not depend on
     which slot won the race to send it. *)
  let request_of arrival =
    let rng = Prng.Splitmix64.create (Int64.add seed (Int64.of_int arrival)) in
    let wl, wh = window_at arrival in
    if arrival mod insert_every = 0 then
      Wire.Insert
        {
          entry = name;
          values =
            Array.init insert_batch (fun _ ->
                wl +. ((wh -. wl) *. Prng.Splitmix64.next_float rng));
        }
    else begin
      let x = lo +. (dom_w *. Prng.Splitmix64.next_float rng) in
      let y = lo +. (dom_w *. Prng.Splitmix64.next_float rng) in
      let a = Float.min x y and b = Float.max x y in
      if arrival mod observe_every = 1 then
        Wire.Observe { entry = name; a; b; actual = truth_at arrival a b }
      else Wire.Estimate { entry = name; a; b; spec = "" }
    end
  in
  let accs =
    Array.init max_clients (fun _ ->
        {
          da_est_ok = 0;
          da_ins_ok = 0;
          da_obs_ok = 0;
          da_err_sum = 0.0;
          da_err_max = 0.0;
          da_invalid = 0;
        })
  in
  let on_reply slot arrival req reply =
    let acc = accs.(slot) in
    match (req, reply) with
    | Wire.Insert _, _ -> acc.da_ins_ok <- acc.da_ins_ok + 1
    | Wire.Observe _, _ -> acc.da_obs_ok <- acc.da_obs_ok + 1
    | Wire.Estimate { a; b; _ }, Wire.Estimate_reply est ->
      acc.da_est_ok <- acc.da_est_ok + 1;
      if not (Float.is_finite est && est >= 0.0 && est <= 1.0) then
        acc.da_invalid <- acc.da_invalid + 1
      else begin
        let err = Float.abs (est -. truth_at arrival a b) in
        acc.da_err_sum <- acc.da_err_sum +. err;
        if err > acc.da_err_max then acc.da_err_max <- err
      end
    | _ -> ()
  in
  let d_open =
    open_loop_drive ~who:"Server.Loadgen.run_drift" ~client_config ~max_clients
      ~late_factor ~rate ~duration_s ~address ~request_of ~on_reply
  in
  let total f = Array.fold_left (fun n a -> n + f a) 0 accs in
  let est_ok = total (fun a -> a.da_est_ok) in
  let invalid = total (fun a -> a.da_invalid) in
  let err_sum = Array.fold_left (fun s a -> s +. a.da_err_sum) 0.0 accs in
  let err_max = Array.fold_left (fun m a -> Float.max m a.da_err_max) 0.0 accs in
  let measured = est_ok - invalid in
  {
    d_open;
    d_estimates = group_n d_open.o_summary "range";
    d_est_ok = est_ok;
    d_inserts = group_n d_open.o_summary "insert";
    d_insert_ok = total (fun a -> a.da_ins_ok);
    d_observes = group_n d_open.o_summary "observe";
    d_observe_ok = total (fun a -> a.da_obs_ok);
    d_mean_abs_err =
      (if measured > 0 then err_sum /. float_of_int measured else Float.nan);
    d_max_abs_err = (if measured > 0 then err_max else Float.nan);
    d_est_invalid = invalid;
  }

let drift_report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b (open_report_to_string r.d_open);
  Buffer.add_string b
    (Printf.sprintf "\nops: estimate %d/%d  insert %d/%d  observe %d/%d"
       r.d_est_ok r.d_estimates r.d_insert_ok r.d_inserts r.d_observe_ok r.d_observes);
  Buffer.add_string b
    (Printf.sprintf
       "\nestimate error vs generator truth: mean abs %.4f  max abs %.4f  invalid %d"
       r.d_mean_abs_err r.d_max_abs_err r.d_est_invalid);
  Buffer.contents b

(* The serving benchmark.

   perfbench --workload point|wide-batch|mixed-rw --seed N --seconds S --trace 0|1

   A run is three sessions; each sets the catalog up, starts
   `selest_cli serve` in its own process, verifies every range read
   against direct Catalog.Service calls, alternates one-second closed-loop
   load slices over two connections with chunks of the rect and join
   probes, then drains the server and reopens its directory.  The last
   line of standard output is one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1, whose sessions trace
   the second half of their slices and whose last session's request
   stream is then replayed in-process with no server running.
   METRICS.md defines every metric and check. *)

module Cat = Catalog.Service
module Wire = Server.Wire
module Ds = Data.Dataset

let run_root = ".perfbench"
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* --- arguments --- *)

let usage () =
  prerr_endline "usage: perfbench --workload point|wide-batch|mixed-rw --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = match Gen.workload_of_string (get "workload") with Some w -> w | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", seconds, trace)

(* --- small helpers --- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path = if not (Sys.file_exists path) then Unix.mkdir path 0o755

let read_lines path =
  match open_in path with
  | ic ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
    let l = go [] in
    close_in ic;
    l
  | exception Sys_error _ -> []

let first_line path = match read_lines path with l :: _ -> String.trim l | [] -> ""

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentile of a sorted array, by linear interpolation. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    let j = min (n - 1) (i + 1) in
    sorted.(i) +. ((r -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

(* --- the server process --- *)

let server_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat Filename.parent_dir_name "bin/selest_cli.exe")

let live_servers = ref []

let spawn_server ~dir ~sock ~adaptive ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let exe = server_exe () in
  let argv = Array.of_list ([ exe; "serve"; "-d"; dir; "--socket"; sock ] @ if adaptive then [ "--adaptive" ] else []) in
  let pid = Unix.create_process exe argv Unix.stdin fd fd in
  Unix.close fd;
  live_servers := pid :: !live_servers;
  pid

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live_servers := List.filter (( <> ) pid) !live_servers;
  status

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

(* Whatever happens, no server outlives the benchmark: an interrupted run
   exits through [exit], which runs this. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers);
  List.iter (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ]

(* Share of the machine's CPU time the hypervisor gave to other guests
   (the steal column of /proc/stat) between two readings: on a shared
   host it explains runs that are slow across the board. *)
let cpu_times () =
  match read_lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " ->
    let fields = List.filter_map int_of_string_opt (String.split_on_char ' ' l) in
    let steal = match List.nth_opt fields 7 with Some v -> v | None -> 0 in
    (List.fold_left ( + ) 0 fields, steal)
  | _ -> (0, 0)

let steal_share (total0, steal0) (total1, steal1) =
  if total1 > total0 then float_of_int (steal1 - steal0) /. float_of_int (total1 - total0) else Float.nan

let wait_for_ping sock ~pid =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then failwith "server did not answer a ping within 60 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "server exited during start-up"
    | exception Unix.Unix_error _ -> ());
    match Conn.connect sock with
    | c -> (
      let r, _, _ = Conn.exchange ~req:0 c Wire.Ping in
      Conn.close c;
      match r with
      | Ok Wire.Pong -> ()
      | _ ->
        Unix.sleepf 0.002;
        go ())
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Peak resident set of a process, in MiB. *)
let vm_hwm_mb pid =
  List.find_map
    (fun l ->
      match Scanf.sscanf l "VmHWM: %d kB" (fun kb -> kb) with
      | kb -> Some (float_of_int kb /. 1024.0)
      | exception _ -> None)
    (read_lines (Printf.sprintf "/proc/%d/status" pid))

(* --- set-up --- *)

type setup = {
  index : int;
  data : Gen.data;
  dir : string;
  sock : string;
  pid : int;
  setup_s : float;
  data_s : float;
  builds : Gen.build_times;
}

let setup ~run_dir ~workload index =
  let dir = Printf.sprintf "%s/catalog-%d" run_dir index in
  let sock = Printf.sprintf "%s/serve-%d.sock" run_dir index in
  rm_rf dir;
  let t0 = Unix.gettimeofday () in
  let data, data_s = Gen.time Gen.make_data in
  let builds = Gen.build_catalog ~dir ~cells:(Gen.cells_of workload) data in
  let pid =
    spawn_server ~dir ~sock ~adaptive:(Gen.adaptive_of workload)
      ~log:(Printf.sprintf "%s/serve-%d.log" run_dir index)
  in
  wait_for_ping sock ~pid;
  { index; data; dir; sock; pid; setup_s = Unix.gettimeofday () -. t0; data_s; builds }

(* --- expected answers and accuracy --- *)

(* The direct answer a served read must match bit for bit. *)
let direct svc = function
  | Wire.Estimate { entry; a; b; _ } -> Wire.Estimate_reply (Cat.answer svc [| (entry, a, b) |]).(0)
  | Wire.Batch_estimate t -> Wire.Batch_reply (Cat.answer svc t)
  | Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi } ->
    Wire.Estimate_reply (Gen.ok_or_fail entry (Cat.answer_rect svc ~name:entry ~x_lo ~x_hi ~y_lo ~y_hi))
  | Wire.Estimate_join { entry; pred } -> Wire.Estimate_reply (Gen.ok_or_fail entry (Cat.answer_join svc ~name:entry ~pred))
  | r -> failwith ("no direct answer for " ^ Wire.request_to_string r)

let mean = function [] -> Float.nan | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Sorted first, so the sum does not depend on the order replies came in. *)
let mean_sorted l = mean (List.sort compare l)

(* Mean relative error of each kind over (request, reply) pairs, against
   the exact answers on the full data; queries whose truth is 0 are left
   out, as in the paper's MRE. *)
let mres (data : Gen.data) pairs =
  let rel est truth = if truth > 0.0 then Some (Float.abs (est -. truth) /. truth) else None in
  let join_truth = Hashtbl.create 8 in
  let r = Gen.file data Gen.join_r and s = Gen.file data Gen.join_s in
  let range = ref [] and rect = ref [] and join = ref [] in
  List.iter
    (fun (req, reply) ->
      match (req, reply) with
      | (Wire.Estimate _ | Wire.Batch_estimate _), _ ->
        let values = match reply with Wire.Estimate_reply v -> [| v |] | Wire.Batch_reply v -> v | _ -> [||] in
        Array.iteri
          (fun i (entry, a, b) ->
            let ds = Gen.file data (Gen.range_file_of entry) in
            Option.iter (fun e -> range := e :: !range) (rel values.(i) (Ds.exact_selectivity ds ~lo:a ~hi:b)))
          (Gen.range_triples req)
      | Wire.Estimate_rect { x_lo; x_hi; y_lo; y_hi; _ }, Wire.Estimate_reply v ->
        Option.iter
          (fun e -> rect := e :: !rect)
          (rel v (Multidim.Dataset2d.exact_selectivity data.Gen.points ~x_lo ~x_hi ~y_lo ~y_hi))
      | Wire.Estimate_join { pred; _ }, Wire.Estimate_reply v ->
        let truth =
          match Hashtbl.find_opt join_truth pred with
          | Some t -> t
          | None ->
            let t = float_of_int (Join.Ineqjoin.exact_inequality_size r s ~pred) in
            Hashtbl.replace join_truth pred t;
            t
        in
        (* Every join query is probed many times; count each once. *)
        if not (List.mem_assoc req !join) then Option.iter (fun e -> join := (req, e) :: !join) (rel v truth)
      | _ -> ())
    pairs;
  (mean_sorted !range, mean_sorted !rect, mean_sorted (List.map snd !join))

(* What a run must reproduce from its seed: the request arrays, the
   accuracy of the direct answers and the per-cell walk's trip count. *)
type fingerprint = {
  streams : Gen.streams;
  verification : Wire.request array;  (** the range reads, then the probes *)
  reads : int;  (** how many range reads lead [verification] *)
  expected : Wire.response array;  (** direct answers to [verification] *)
  mre : float * float * float;
  cells_touched : int;
}

let fingerprint ~workload ~seed (s : setup) =
  let streams = Gen.streams workload ~seed s.data in
  let reads, probes = Gen.verification streams in
  let verification = Array.append reads probes in
  let svc, skipped = Cat.open_dir ~config:{ Cat.default_config with Cat.cells = Gen.cells_of workload } s.dir in
  if skipped <> [] then failwith "fingerprint: snapshots skipped";
  let expected = Array.map (direct svc) verification in
  let cells = Gen.cells_of workload in
  let cells_touched =
    Array.fold_left
      (fun acc req ->
        Array.fold_left
          (fun acc (entry, a, b) ->
            acc + Gen.cells_touched ~cells (Gen.domain_of (Gen.file s.data (Gen.range_file_of entry))) a b)
          acc (Gen.range_triples req))
      0
      (Array.concat (Array.to_list streams.Gen.per_conn))
  in
  {
    streams;
    verification;
    reads = Array.length reads;
    expected;
    mre = mres s.data (Array.to_list (Array.combine verification expected));
    cells_touched;
  }

let same_requests a b = Array.length a = Array.length b && Array.for_all2 Wire.equal_request a b

let same_fingerprint f g =
  Array.for_all2 same_requests f.streams.Gen.per_conn g.streams.Gen.per_conn
  && same_requests f.streams.Gen.rects g.streams.Gen.rects
  && Array.for_all2 Wire.equal_response f.expected g.expected
  && f.mre = g.mre && f.cells_touched = g.cells_touched

(* Every generated range and rect width lies inside its band. *)
let widths_in_band workload (data : Gen.data) (streams : Gen.streams) =
  let within (lo, hi) a b band =
    let f = (b -. a) /. (hi -. lo) in
    f >= band.Gen.lo_frac && f <= band.Gen.hi_frac
  in
  let ok req =
    match req with
    | Wire.Estimate_rect { x_lo; x_hi; y_lo; y_hi; _ } ->
      within (Gen.domain_of (Gen.file data Gen.rect_x)) x_lo x_hi Gen.rect_band
      && within (Gen.domain_of (Gen.file data Gen.rect_y)) y_lo y_hi Gen.rect_band
    | _ ->
      Array.for_all
        (fun (entry, a, b) ->
          within (Gen.domain_of (Gen.file data (Gen.range_file_of entry))) a b (Gen.band_of workload))
        (Gen.range_triples req)
  in
  Array.for_all (Array.for_all ok) streams.Gen.per_conn && Array.for_all ok streams.Gen.rects

(* --- checking replies --- *)

type expectation = Exact of Wire.response | Unit_interval | Insert_ack | Observe_ack

let expectation ~workload ~expected_of req =
  match req with
  | Wire.Insert _ -> Insert_ack
  | Wire.Observe _ -> Observe_ack
  | Wire.Estimate _ when Gen.adaptive_of workload -> Unit_interval
  | _ -> Exact (expected_of req)

let check expectation reply =
  match (expectation, reply) with
  | Exact e, Ok r -> Wire.equal_response e r
  | Unit_interval, Ok (Wire.Estimate_reply v) -> Float.is_finite v && v >= 0.0 && v <= 1.0
  | Insert_ack, Ok (Wire.Inserted _) -> true
  | Observe_ack, Ok (Wire.Observed v) -> Float.is_finite v
  | _ -> false

(* --- load phase --- *)

type cls = Range | Rect | Join of string  (** the join entry *) | Write

let cls_of = function
  | Wire.Estimate _ | Wire.Batch_estimate _ -> Range
  | Wire.Estimate_rect _ -> Rect
  | Wire.Estimate_join { entry; _ } -> Join entry
  | _ -> Write

(* Exchange latencies in ns, each with its request's class.  Flat arrays
   rather than a record per exchange: a run keeps a million or more, and
   the later sessions' set-up is timed in this same heap. *)
type lats = { lat : int array; cls : cls array }

type conn_result = {
  lats : lats;
  sent : int;  (** exchanges attempted *)
  failed : int;
  first_failure : string option;
  bytes : int;
  queries : int;
}

(* The loop keeps its records in flat int arrays (latency, stream index),
   so the measured phase allocates no per-exchange record. *)
let drive ?spans ~deadline ~from conn stream expect =
  let n = Array.length stream in
  let lats = ref (Array.make 65536 0) and idx = ref (Array.make 65536 0) in
  let sent = ref 0 and failed = ref 0 and first = ref None and queries = ref 0 in
  let bytes0 = conn.Conn.bytes in
  let stop = ref false in
  while (not !stop) && Spans.now_ns () < deadline do
    let k = !sent in
    let i = (from + k) mod n in
    let req = stream.(i) in
    let reply, t0, t1 = Conn.exchange ?spans ~req:(from + k) conn req in
    if k = Array.length !lats then begin
      let grow a = Array.append !a (Array.make k 0) in
      lats := grow lats;
      idx := grow idx
    end;
    !lats.(k) <- t1 - t0;
    !idx.(k) <- i;
    sent := k + 1;
    if check expect.(i) reply then queries := !queries + Gen.queries_of req
    else begin
      incr failed;
      if !first = None then
        first :=
          Some
            (Printf.sprintf "%s -> %s" (Wire.request_to_string req)
               (match reply with Ok r -> Wire.response_to_string r | Error e -> e));
      (* A transport failure ends the connection's loop. *)
      match reply with Error _ -> stop := true | Ok _ -> ()
    end
  done;
  {
    lats = { lat = Array.sub !lats 0 !sent; cls = Array.init !sent (fun k -> cls_of stream.(!idx.(k))) };
    sent = !sent;
    failed = !failed;
    first_failure = !first;
    bytes = conn.Conn.bytes - bytes0;
    queries = !queries;
  }

(* Both connections closed-loop for [duration_ns], each from its cursor
   into its stream; each runs in its own thread of this one
   load-generator process. *)
let load_phase ?spans conns cursors streams expects ~duration_ns =
  let t_start = Spans.now_ns () in
  let deadline = t_start + duration_ns in
  let results = Array.make (Array.length conns) None in
  let threads =
    Array.mapi
      (fun c conn ->
        Thread.create
          (fun () ->
            let spans = Option.map (fun s -> s.(c)) spans in
            results.(c) <- Some (drive ?spans ~deadline ~from:cursors.(c) conn streams.(c) expects.(c)))
          ())
      conns
  in
  Array.iter Thread.join threads;
  let results = Array.map Option.get results in
  Array.iteri (fun c r -> cursors.(c) <- cursors.(c) + r.sent) results;
  (Spans.now_ns () - t_start, results)

(* Latency of each exchange in ms, sorted; only those of class [cls]
   when given. *)
let lat_ms ?cls (ls : lats list) =
  let keep c = Option.fold ~none:true ~some:(( = ) c) cls in
  let n = List.fold_left (fun acc l -> Array.fold_left (fun acc c -> if keep c then acc + 1 else acc) acc l.cls) 0 ls in
  let a = Array.make n 0.0 and k = ref 0 in
  List.iter
    (fun l ->
      Array.iteri
        (fun i c ->
          if keep c then begin
            a.(!k) <- float_of_int l.lat.(i) /. 1e6;
            incr k
          end)
        l.cls)
    ls;
  Array.sort Float.compare a;
  a

(* --- the drain report --- *)

type drain = { batches : int; merged : int; refused : int; exit_ok : bool }

let parse_drain log status =
  let line = List.find_opt (fun l -> String.length l > 8 && String.sub l 0 8 = "drained:") (read_lines log) in
  let exit_ok = status = Unix.WEXITED 0 in
  match line with
  | None -> { batches = 0; merged = 0; refused = 0; exit_ok = false }
  | Some l ->
    Scanf.sscanf l
      "drained: %d connections, %d requests, %d answered, %d overloaded, %d timeouts, %d refused draining, %d \
       protocol errors, %d batches (%d queries merged)"
      (fun _ _ _ overloaded timeouts draining _ batches merged ->
        { batches; merged; refused = overloaded + timeouts + draining; exit_ok })

(* --- run header --- *)

let header ~workload ~seed ~seconds ~trace =
  let cpuinfo = read_lines "/proc/cpuinfo" in
  let cpu =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.length l > 10 && String.sub l 0 10 = "model name" ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      cpuinfo
  in
  let nproc = List.length (List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "processor") cpuinfo) in
  let commit =
    match first_line ".git/HEAD" with
    | "" -> "unknown (not a git checkout)"
    | head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let r = first_line (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) in
      if r = "" then head else r
    | head -> head
  in
  let e = Server.Engine.default_config in
  say "perfbench: workload %s, seed %d, %d s load phase, trace %b" (Gen.workload_name workload) seed seconds trace;
  say "host: nproc %d (recommended domains %d), cpu %s" nproc (Domain.recommended_domain_count ())
    (Option.value cpu ~default:"unknown");
  say "build: OCaml %s, commit %s" Sys.ocaml_version commit;
  say
    "server: selest_cli serve%s, 1 shard, engine defaults (jobs %d, max_inflight %d, max_batch %d, deadline %g s); \
     catalog cells %d, cache capacity %d, rebuild after %d inserts"
    (if Gen.adaptive_of workload then " --adaptive" else "")
    e.Server.Engine.jobs e.Server.Engine.max_inflight e.Server.Engine.max_batch e.Server.Engine.deadline_s
    (Gen.cells_of workload) Cat.default_config.Cat.capacity Cat.default_config.Cat.rebuild_after_inserts;
  say "load: closed loop, %d connections from one process, %d requests per connection stream" Gen.connections
    (Gen.stream_length workload)

(* --- output --- *)

let json ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted failed
    body

(* --- sessions --- *)

(* A run is [sessions] sessions spread over its length: each sets the
   catalog up, starts its own server, verifies every range read, then
   alternates one-second load slices with chunks of the rect and join
   probes, and finally drains the server and reopens the directory.
   Spreading set-up, probes and load over the run lets every metric see
   the same mix of the host's fast and slow spells. *)
let sessions = 3

type phase = { duration : int; conns : conn_result array }

type session = {
  setup : setup;
  fp : fingerprint;
  verified : (Wire.request * Wire.response) list;  (** served verification replies *)
  verify_lats : lats;
  verify_failed : int;
  untraced : phase list;  (** the load slices *)
  traced : phase list;
  spans : Spans.t list;  (** client spans of the traced slices *)
  rss_mb : float;
  drain : drain;
}

let phase_lats p = List.map (fun c -> c.lats) (Array.to_list p.conns)
let conn_results phases = List.concat_map (fun p -> Array.to_list p.conns) phases

(* Queries answered per second of load, over whole phases. *)
let qps phases =
  let queries = List.fold_left (fun acc (c : conn_result) -> acc + c.queries) 0 (conn_results phases) in
  let seconds = List.fold_left (fun acc p -> acc +. (float_of_int p.duration /. 1e9)) 0.0 phases in
  float_of_int queries /. seconds

let run_session ~run_dir ~workload ~seed ~load_ns ~trace ~fail index =
  let s = setup ~run_dir ~workload index in
  let f = fingerprint ~workload ~seed s in
  let conns = Array.init Gen.connections (fun _ -> Conn.connect s.sock) in
  let verify_lat = ref [] and verify_cls = ref [] and verified = ref [] and verify_failed = ref 0 in
  let verify i =
    let req = f.verification.(i) in
    let reply, t0, t1 = Conn.exchange ~req:i conns.(0) req in
    verify_lat := (t1 - t0) :: !verify_lat;
    verify_cls := cls_of req :: !verify_cls;
    match reply with
    | Ok r when Wire.equal_response r f.expected.(i) -> verified := (req, r) :: !verified
    | r ->
      incr verify_failed;
      if !verify_failed <= 3 then
        fail
          (Printf.sprintf "verification: %s -> %s, direct %s" (Wire.request_to_string req)
             (match r with Ok r -> Wire.response_to_string r | Error e -> e)
             (Wire.response_to_string f.expected.(i)))
  in
  (* Every range read, checked bit for bit, before any write. *)
  for i = 0 to f.reads - 1 do
    verify i
  done;
  let expected_of =
    let tbl = Hashtbl.create 1024 in
    Array.iteri (fun i req -> Hashtbl.replace tbl (Wire.encode_request req) f.expected.(i)) f.verification;
    fun req -> Hashtbl.find tbl (Wire.encode_request req)
  in
  let streams = f.streams.Gen.per_conn in
  let expects = Array.map (Array.map (expectation ~workload ~expected_of)) streams in
  let slices = max 1 (load_ns / 1_000_000_000) in
  let traced_from = if trace then slices / 2 else slices in
  let recorders = if trace then Some (Array.init Gen.connections (fun _ -> Spans.create ())) else None in
  let cursors = Array.make Gen.connections 0 in
  let untraced = ref [] and traced = ref [] in
  let probes = Array.length f.verification - f.reads in
  for k = 0 to slices - 1 do
    for j = 0 to probes - 1 do
      if j mod slices = k then verify (f.reads + j)
    done;
    let spans = if k >= traced_from then recorders else None in
    let duration, conns = load_phase ?spans conns cursors streams expects ~duration_ns:(load_ns / slices) in
    let p = { duration; conns } in
    if k >= traced_from then traced := p :: !traced else untraced := p :: !untraced
  done;
  let rss_mb = Option.value (vm_hwm_mb s.pid) ~default:Float.nan in
  Array.iter Conn.close conns;
  let status = stop_server s.pid in
  let drain = parse_drain (Printf.sprintf "%s/serve-%d.log" run_dir index) status in
  if not drain.exit_ok then fail (Printf.sprintf "session %d: the server did not drain cleanly" index);
  (match Cat.open_dir s.dir with
  | _, [] -> ()
  | _, skipped -> fail (Printf.sprintf "session %d: reopen skipped %d snapshots" index (List.length skipped)));
  List.iter
    (fun c -> Option.iter (fun m -> fail ("load: " ^ m)) c.first_failure)
    (conn_results (!untraced @ !traced));
  {
    setup = s;
    fp = f;
    verified = List.rev !verified;
    verify_lats = { lat = Array.of_list !verify_lat; cls = Array.of_list !verify_cls };
    verify_failed = !verify_failed;
    untraced = List.rev !untraced;
    traced = List.rev !traced;
    spans = (match recorders with Some r -> Array.to_list r | None -> []);
    rss_mb;
    drain;
  }

(* --- the traced run's per-layer metrics --- *)

(* The replayed stream: the verification pass, then each connection's
   load-phase requests interleaved in send order. *)
let load_stream streams sent =
  let n = Array.fold_left max 0 sent in
  List.concat
    (List.init n (fun k ->
         List.filter_map
           (fun c -> if k < sent.(c) then Some streams.(c).(k mod Array.length streams.(c)) else None)
           (List.init (Array.length streams) Fun.id)))
  |> Array.of_list

let time_ms f =
  let t0 = Spans.now_ns () in
  f ();
  float_of_int (Spans.now_ns () - t0) /. 1e6

(* The replay is capped so a traced run stays within its time budget. *)
let replay_seconds = 5

let layer_metrics ~workload ~seed (runs : session list) =
  let last = List.nth runs (List.length runs - 1) in
  let s = last.setup and f = last.fp in
  let traced = List.concat_map (fun r -> r.traced) runs in
  let untraced = List.concat_map (fun r -> r.untraced) runs in
  let p50_ms = pct (lat_ms (List.concat_map phase_lats untraced)) 0.5 in
  let client_spans = List.concat_map (fun r -> r.spans) runs in
  let streams = f.streams.Gen.per_conn in
  let sent =
    Array.init Gen.connections (fun c ->
        List.fold_left (fun acc p -> acc + p.conns.(c).sent) 0 (last.untraced @ last.traced))
  in
  let svc, _ = Cat.open_dir ~config:{ Cat.default_config with Cat.cells = Gen.cells_of workload } s.dir in
  if Gen.adaptive_of workload then Cat.enable_adaptive svc;
  (* Replay the last session's verification pass, then its load phase. *)
  let deadline_ns = Spans.now_ns () + (replay_seconds * 1_000_000_000) in
  let verify_spans = Spans.create () and load_spans = Spans.create () in
  ignore (Replay.run svc ~dir:s.dir verify_spans f.verification ~deadline_ns);
  let stream = load_stream streams sent in
  let r = Replay.run svc ~dir:s.dir load_spans stream ~deadline_ns in
  (* A write probe then measures the adaptive layer on this workload's
     summaries whether or not the stream carried writes (a short traced
     run of mixed-rw may swap nothing). *)
  if not (Gen.adaptive_of workload) then Cat.enable_adaptive svc;
  let probe_spans = Spans.create () in
  let w = Replay.run svc ~dir:s.dir probe_spans (Gen.write_probe s.data ~seed) ~deadline_ns:max_int in
  let write_spans = [ load_spans; probe_spans ] in
  let swaps = r.Replay.swaps + w.Replay.swaps in
  let rebuild_ms =
    mean
      (List.map
         (fun e ->
           let ds = Gen.file s.data e.Gen.r_file in
           let sample = Workload.Experiment.sample_of ds ~seed:(Int64.add Gen.sample_seed 2L) ~n:Gen.sample_size in
           time_ms (fun () -> ignore (Gen.ok_or_fail e.Gen.r_name (Cat.rebuild svc ~name:e.Gen.r_name ~sample))))
         (Array.to_list Gen.range_entries))
  in
  let cache = Cat.cache_stats svc in
  (* Snapshot save and load of every entry, three rounds. *)
  let entries, _ = Catalog.Snapshot.load_dir ~dir:s.dir () in
  let probe_dir = s.dir ^ "-snapshots" in
  mkdir_p probe_dir;
  let rounds = 3 in
  let per_entry ms = ms /. float_of_int (rounds * List.length entries) in
  let repeat f = List.fold_left ( +. ) 0.0 (List.init rounds (fun _ -> time_ms f)) in
  let save_ms = per_entry (repeat (fun () -> List.iter (Catalog.Snapshot.save ~dir:probe_dir) entries)) in
  let load_ms =
    per_entry
      (repeat (fun () ->
           List.iter
             (fun (e : Catalog.Snapshot.entry) ->
               ignore (Gen.ok_or_fail e.name (Catalog.Snapshot.load ~path:(Catalog.Snapshot.path ~dir:probe_dir e.name))))
             entries))
  in
  let all_replay = [ verify_spans; load_spans ] in
  let ns ts name = Spans.mean_ns ts name in
  let per_query ts name = float_of_int (Spans.total_ns ts name) /. float_of_int (max 1 r.Replay.range_queries) in
  let server_work_ns =
    float_of_int
      (List.fold_left
         (fun acc name -> acc + Spans.total_ns [ load_spans ] name)
         0
         Spans.
           [
             wire_decode;
             catalog_answer;
             catalog_answer_rect;
             catalog_answer_join;
             catalog_insert;
             catalog_observe;
             catalog_tick;
             wire_encode_reply;
           ])
    /. float_of_int (max 1 r.Replay.requests)
  in
  let client_wait_us = ns client_spans Spans.client_wait /. 1e3 in
  let answer_ns = per_query [ load_spans ] Spans.catalog_answer in
  let range_queries =
    Array.fold_left (fun acc req -> acc + Array.length (Gen.range_triples req)) 0 (Array.concat (Array.to_list streams))
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 (conn_results untraced) in
  let drains = List.map (fun r -> r.drain) runs in
  let dsum f = List.fold_left (fun acc d -> acc + f d) 0 drains in
  let med_setup g = median (List.map (fun r -> g r.setup) runs) in
  let swap_ticks = List.map (fun t -> float_of_int t /. 1e6) (r.Replay.swap_tick_ns @ w.Replay.swap_tick_ns) in
  say "trace: untraced %.1f q/s, traced %.1f q/s; replayed %d of the last session's %d load requests" (qps untraced)
    (qps traced) r.Replay.requests (Array.length stream);
  say "self time per span, client (traced halves):";
  List.iter (fun l -> say "  %s" l) (Spans.report client_spans);
  say "self time per span, replay (verification, load, write probe):";
  List.iter (fun l -> say "  %s" l) (Spans.report (all_replay @ [ probe_spans ]));
  say "replayed decode, answer and encode per exchange: %.2f us = %.1f%% of p50_ms %.4f" (server_work_ns /. 1e3)
    (100.0 *. server_work_ns /. (p50_ms *. 1e6))
    p50_ms;
  say "%d x catalog.answer_ns = %.4f ms = %.1f%% of p50_ms; catalog.answer busy share at the untraced rate: %.1f%%"
    Gen.batch_size
    (float_of_int Gen.batch_size *. answer_ns /. 1e6)
    (100.0 *. float_of_int Gen.batch_size *. answer_ns /. (p50_ms *. 1e6))
    (100.0 *. qps untraced *. answer_ns /. 1e9);
  say "adaptive: %d swaps, %d swap ticks (median %.3f ms)" swaps (List.length swap_ticks) (median swap_ticks);
  Spans.write
    (Printf.sprintf "%s/trace-%s-%d.tsv" run_root (Gen.workload_name workload) seed)
    (client_spans @ all_replay @ [ probe_spans ]);
  [
    ("wire.decode_ns", ns [ load_spans ] Spans.wire_decode, "ns");
    ("wire.encode_reply_ns", ns [ load_spans ] Spans.wire_encode_reply, "ns");
    ("wire.bytes_per_query", float_of_int (sum (fun c -> c.bytes)) /. float_of_int (max 1 (sum (fun c -> c.queries))), "bytes");
    ("client.wait_us", client_wait_us, "us");
    ("engine.residual_us", client_wait_us -. (server_work_ns /. 1e3), "us");
    ("engine.batch_fill", float_of_int (dsum (fun d -> d.merged)) /. float_of_int (max 1 (dsum (fun d -> d.batches))), "count");
    ("engine.refused", float_of_int (dsum (fun d -> d.refused)), "count");
    ("catalog.answer_ns", answer_ns, "ns");
    ("catalog.answer_rect_ns", ns all_replay Spans.catalog_answer_rect, "ns");
    ("catalog.answer_join_ns", ns all_replay Spans.catalog_answer_join, "ns");
    ("catalog.insert_us", ns write_spans Spans.catalog_insert /. 1e3, "us");
    ("catalog.observe_us", ns write_spans Spans.catalog_observe /. 1e3, "us");
    ("catalog.tick_ms", median swap_ticks, "ms");
    ("catalog.rebuild_ms", rebuild_ms, "ms");
    ("catalog.swaps", float_of_int swaps, "count");
    ( "catalog.hit_rate",
      float_of_int cache.Catalog.Lru.hits /. float_of_int (max 1 (cache.Catalog.Lru.hits + cache.Catalog.Lru.misses)),
      "ratio" );
    ("catalog.evictions", float_of_int cache.Catalog.Lru.evictions, "count");
    ("snapshot.save_ms", save_ms, "ms");
    ("snapshot.load_ms", load_ms, "ms");
    ("stored.range_ns", per_query [ load_spans ] Spans.stored_range, "ns");
    ("stored.cells_touched", float_of_int f.cells_touched /. float_of_int (max 1 range_queries), "count");
    ("stored.rect_ns", ns all_replay Spans.stored_rect, "ns");
    ("stored.join_ns", ns all_replay Spans.stored_join, "ns");
    ("build.range_ms", med_setup (fun s -> s.builds.Gen.range_s) *. 1e3 /. float_of_int (Array.length Gen.range_entries), "ms");
    ("build.rect_ms", med_setup (fun s -> s.builds.Gen.rect_s) *. 1e3, "ms");
    ("build.join_ms", med_setup (fun s -> s.builds.Gen.join_s) *. 1e3 /. float_of_int (Array.length Gen.join_names), "ms");
    ("setup.data_s", med_setup (fun s -> s.data_s), "s");
    ("trace.overhead", qps untraced /. qps traced, "ratio");
  ]

(* --- main --- *)

let main () =
  let workload, seed, seconds, trace = args () in
  if not (Sys.file_exists (server_exe ())) then failwith ("server binary not found: " ^ server_exe ());
  mkdir_p run_root;
  let run_dir = Printf.sprintf "%s/%s-%d-%d" run_root (Gen.workload_name workload) seed (Unix.getpid ()) in
  rm_rf run_dir;
  mkdir_p run_dir;
  header ~workload ~seed ~seconds ~trace;
  let failures = ref [] in
  let fail msg =
    failures := msg :: !failures;
    say "CHECK FAILED: %s" msg
  in
  let load_ns = seconds * 1_000_000_000 / sessions in
  let cpu0 = cpu_times () in
  let runs = List.init sessions (run_session ~run_dir ~workload ~seed ~load_ns ~trace ~fail) in
  let first = List.hd runs in
  (* Self-tests: determinism across sessions, bands, seed sensitivity. *)
  if not (List.for_all (fun r -> same_fingerprint first.fp r.fp) runs) then
    fail "self-test: the same seed gave different requests, answers or accuracy across sessions";
  if not (widths_in_band workload first.setup.data first.fp.streams) then fail "self-test: a generated width left its band";
  let other = Gen.streams workload ~seed:(seed + 1) first.setup.data in
  if Array.for_all2 same_requests other.Gen.per_conn first.fp.streams.Gen.per_conn then
    fail "self-test: a different seed gave identical requests";
  (* Accuracy of the served verification replies. *)
  let range_mre, rect_mre, join_mre = mres first.setup.data first.verified in
  if first.verify_failed = 0 && (range_mre, rect_mre, join_mre) <> first.fp.mre then
    fail "served accuracy differs from direct";
  let count f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let load_count f =
    count (fun r -> List.fold_left (fun acc c -> acc + f c) 0 (conn_results (r.untraced @ r.traced)))
  in
  let attempted = count (fun r -> Array.length r.fp.verification) + load_count (fun c -> c.sent) in
  let failed = count (fun r -> r.verify_failed) + load_count (fun c -> c.failed) in
  let untraced = List.concat_map (fun r -> r.untraced) runs in
  let load_lats = List.concat_map phase_lats untraced in
  let all_ms = lat_ms load_lats and range_ms = lat_ms ~cls:Range load_lats in
  let p50_ms = pct all_ms 0.5 in
  (* Join exchanges are bimodal (a 64-bucket sweep costs tens of us, a
     256-bucket one hundreds), so a pooled median would sit in the gap
     between the modes; take each entry's median and average them. *)
  let join_lats =
    Array.map (fun e -> lat_ms ~cls:(Join e) (List.map (fun r -> r.verify_lats) runs @ load_lats)) Gen.join_names
  in
  let join_p50 = Array.fold_left (fun acc a -> acc +. pct a 0.5) 0.0 join_lats /. float_of_int (Array.length join_lats) in
  let n_joins = Array.fold_left (fun acc a -> acc + Array.length a) 0 join_lats in
  let writes = lat_ms ~cls:Write load_lats in
  let setup_times = List.map (fun r -> r.setup.setup_s) runs in
  say "setup_s: %s (median %.4f s, n=%d)" (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times))
    (median setup_times) sessions;
  say "p50_ms: %.4f (median of all %d load exchanges)  p99_ms: %.4f" p50_ms (Array.length all_ms) (pct all_ms 0.99);
  say "throughput_qps: %.1f q/s (same %d exchanges)" (qps untraced) (Array.length all_ms);
  say "range_p99_ms: %.4f (n=%d)  join_p50_ms: %.4f (mean of per-entry medians %s, n=%d)" (pct range_ms 0.99)
    (Array.length range_ms) join_p50
    (String.concat " / " (Array.to_list (Array.map (fun a -> Printf.sprintf "%.4f" (pct a 0.5)) join_lats)))
    n_joins;
  if Array.length writes > 0 then say "write_p99_ms: %.4f (n=%d)" (pct writes 0.99) (Array.length writes);
  say "range_mre %.6f  rect_mre %.6f  join_mre %.6f (served verification replies)" range_mre rect_mre join_mre;
  say "failed_share: %d / %d" failed attempted;
  say "host: cpu steal %.1f%% during the run" (100.0 *. steal_share cpu0 (cpu_times ()));
  say "server_rss_mb: %s (peak per session)"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" r.rss_mb) runs));
  List.iteri
    (fun i r ->
      say "drain %d: %d batches, %d queries merged, %d refused" i r.drain.batches r.drain.merged r.drain.refused)
    runs;
  let metrics =
    if trace then layer_metrics ~workload ~seed runs
    else
      [
        ("setup_s", median setup_times, "s");
        ("p50_ms", p50_ms, "ms");
        ("range_mre", range_mre, "ratio");
        ("rect_mre", rect_mre, "ratio");
        ("join_mre", join_mre, "ratio");
        ("server_rss_mb", median (List.map (fun r -> r.rss_mb) runs), "MiB");
      ]
  in
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then fail (Printf.sprintf "metric %s was not measured" name))
    metrics;
  let correct = !failures = [] && failed = 0 in
  json ~correct ~attempted ~failed metrics;
  rm_rf run_dir;
  if not correct then exit 1

let () =
  match main () with
  | () -> ()
  | exception e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1

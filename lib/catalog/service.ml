type config = {
  capacity : int;
  rebuild_after_inserts : int;
  cells : int;
}

let default_config = { capacity = 32; rebuild_after_inserts = 10_000; cells = 256 }

(* Per-entry metadata stays resident even when the summary itself is
   evicted: staleness must be trackable without touching the disk. *)
type meta = {
  kind : Selest.Stored.kind;
  spec : string;
  provenance : string option; (* audit trail of where the spec came from *)
  mutable cells : int;
  domain : float * float; (* x-domain for rect entries *)
  domain_y : (float * float) option; (* rect entries only *)
  mutable inserts : int;
  mutable stale : bool;
}

type adaptive_config = {
  reservoir_capacity : int;
  min_rebuild_sample : int;
  refresh_after_observes : int;
  learning_rate : float;
  adaptive_seed : int64;
}

let default_adaptive_config =
  {
    reservoir_capacity = 1024;
    min_rebuild_sample = 64;
    refresh_after_observes = 256;
    learning_rate = 0.5;
    adaptive_seed = 0xada9_71fe_55aaL;
  }

(* Per-entry adaptive state, created lazily on the first insert/observe.
   Confined to the service owner (the serving engine holds its catalog
   mutex); only the rebuild worker below runs off-thread, and it never
   touches this record. *)
type astate = {
  reservoir : Online.Reservoir.t;
      (* range: attribute values; rect: x coordinates; join: R-side values *)
  reservoir_y : Online.Reservoir.t option;
      (* rect entries only: y coordinates, created with the same seed as
         [reservoir] and fed in lockstep.  Algorithm R's replacement
         decisions depend only on (seed, seen count), never on the values,
         so the two reservoirs make identical slot choices and slot [i]
         of each always holds the coordinates of the same point. *)
  mutable feedback : Feedback.Adaptive.t option;
      (* range entries only: rect/join summaries have no ST-histogram *)
  mutable observes_since_refresh : int;
  mutable rebuild_failed : string option;
      (* last background rebuild error; cleared by fresh inserts so the
         tick does not hot-loop on a sample the estimator rejects *)
}

(* An in-flight background rebuild.  The worker thread fills [p_result]
   under [p_m]; the owner joins and installs the summary from
   [adaptive_tick]. *)
type pending = {
  p_name : string;
  p_m : Mutex.t;
  mutable p_result : (Selest.Stored.any, string) result option;
  mutable p_thread : Thread.t option;
}

type adaptive_rt = {
  acfg : adaptive_config;
  states : (string, astate) Hashtbl.t;
  mutable pending : pending option;
}

type t = {
  dir : string;
  config : config;
  index : (string, meta) Hashtbl.t;
  cache : Selest.Stored.any Lru.t;
  mutable adaptive : adaptive_rt option;
  m_entries : Telemetry.Metrics.gauge;
  m_builds : Telemetry.Metrics.counter;
  m_rebuilds : Telemetry.Metrics.counter;
  m_stale : Telemetry.Metrics.counter;
  m_snapshot_writes : Telemetry.Metrics.counter;
  m_snapshot_load_errors : Telemetry.Metrics.counter;
  m_batch_requests : Telemetry.Metrics.counter;
  m_answer_seconds : Telemetry.Metrics.histogram;
  m_adaptive_inserts : Telemetry.Metrics.counter;
  m_observations : Telemetry.Metrics.counter;
  m_swaps : Telemetry.Metrics.counter;
}

type info = {
  name : string;
  kind : Selest.Stored.kind;
  spec : string;
  provenance : string option;
  cells : int;
  domain : float * float;
  domain_y : (float * float) option;
  inserts : int;
  stale : bool;
  cached : bool;
}

(* A directory last served by the former hash-sharded server holds its
   snapshots in [shard-<i>/] subdirectories.  Move every snapshot (and
   every orphaned temp file, which [Snapshot.load_dir] then sweeps and
   reports) back into [dir], so such a directory still opens with every
   entry; emptied subdirectories are removed.  A failed move goes on the
   skip list instead of aborting the open. *)
let flatten_legacy_layout dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f ->
         String.length f > 6
         && String.sub f 0 6 = "shard-"
         && Sys.is_directory (Filename.concat dir f))
  |> List.concat_map (fun sub ->
         let sub_dir = Filename.concat dir sub in
         let skipped =
           Sys.readdir sub_dir |> Array.to_list |> List.sort String.compare
           |> List.filter_map (fun file ->
                  if
                    Filename.check_suffix file Snapshot.extension
                    || Filename.check_suffix file Snapshot.tmp_extension
                  then
                    match Sys.rename (Filename.concat sub_dir file) (Filename.concat dir file) with
                    | () -> None
                    | exception Sys_error msg ->
                      Some (file, Printf.sprintf "could not move out of %s/: %s" sub msg)
                  else None)
         in
         (try if Sys.readdir sub_dir = [||] then Sys.rmdir sub_dir with Sys_error _ -> ());
         skipped)

let meta_of summary ~spec ~provenance ~inserts ~stale =
  {
    kind = Selest.Stored.any_kind summary;
    spec;
    provenance;
    cells = Selest.Stored.any_cells summary;
    domain = Selest.Stored.any_domain summary;
    domain_y =
      (match summary with
      | Selest.Stored.Rect r -> Some (snd (Selest.Stored.rect_domains r))
      | _ -> None);
    inserts;
    stale;
  }

let open_dir ?(config = default_config) dir =
  if config.capacity < 1 then invalid_arg "Catalog.Service.open_dir: capacity must be >= 1";
  if config.rebuild_after_inserts < 1 then
    invalid_arg "Catalog.Service.open_dir: rebuild_after_inserts must be >= 1";
  if config.cells < 1 then invalid_arg "Catalog.Service.open_dir: cells must be >= 1";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "%s: not a directory" dir));
  let labels = [ ("dir", Filename.basename dir) ] in
  let t =
    {
      dir;
      config;
      index = Hashtbl.create 64;
      cache = Lru.create ~cache_name:(Filename.basename dir) ~capacity:config.capacity ();
      adaptive = None;
      m_entries =
        Telemetry.Metrics.gauge "catalog_entries" ~labels ~help:"Indexed catalog entries";
      m_builds =
        Telemetry.Metrics.counter "catalog_builds_total" ~labels
          ~help:"Summaries built from a sample (including rebuilds)";
      m_rebuilds =
        Telemetry.Metrics.counter "catalog_rebuilds_total" ~labels
          ~help:"Builds that replaced an existing entry";
      m_stale =
        Telemetry.Metrics.counter "catalog_stale_transitions_total" ~labels
          ~help:"Entries that turned stale (insert budget or invalidate)";
      m_snapshot_writes =
        Telemetry.Metrics.counter "catalog_snapshot_writes_total" ~labels
          ~help:"Atomic snapshot files written";
      m_snapshot_load_errors =
        Telemetry.Metrics.counter "catalog_snapshot_load_errors_total" ~labels
          ~help:"Snapshot files skipped as corrupt during recovery";
      m_batch_requests =
        Telemetry.Metrics.counter "catalog_batch_requests_total" ~labels
          ~help:"Range queries answered through Service.answer";
      m_answer_seconds =
        Telemetry.Metrics.histogram "catalog_answer_seconds" ~labels
          ~help:"Latency of Service.answer batches";
      m_adaptive_inserts =
        Telemetry.Metrics.counter "catalog_adaptive_inserts_total" ~labels
          ~help:"Values offered to per-entry reservoirs via Service.insert";
      m_observations =
        Telemetry.Metrics.counter "catalog_observations_total" ~labels
          ~help:"True selectivities absorbed via Service.observe";
      m_swaps =
        Telemetry.Metrics.counter "catalog_adaptive_swaps_total" ~labels
          ~help:"Summaries atomically swapped by the adaptive tick";
    }
  in
  let flatten_skips = flatten_legacy_layout dir in
  let entries, skipped = Snapshot.load_dir ~dir () in
  let skipped = flatten_skips @ skipped in
  List.iter
    (fun (e : Snapshot.entry) ->
      Hashtbl.replace t.index e.name
        (meta_of e.summary ~spec:e.spec ~provenance:e.provenance ~inserts:e.inserts
           ~stale:e.stale);
      (* Keep what was just parsed, up to capacity, so the first queries
         do not parse the same files again.  Stopping at capacity means
         the warm-up counts no eviction. *)
      if Lru.length t.cache < config.capacity then Lru.add t.cache e.name e.summary)
    entries;
  Telemetry.Metrics.add t.m_snapshot_load_errors (List.length skipped);
  Telemetry.Metrics.set t.m_entries (float_of_int (Hashtbl.length t.index));
  (t, skipped)

let dir t = t.dir
let config t = t.config
let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.index [] |> List.sort String.compare
let mem t name = Hashtbl.mem t.index name

let is_kind t name kind =
  match Hashtbl.find t.index name with
  | m -> m.kind = kind
  | exception Not_found -> false

let info_of t name (m : meta) =
  {
    name;
    kind = m.kind;
    spec = m.spec;
    provenance = m.provenance;
    cells = m.cells;
    domain = m.domain;
    domain_y = m.domain_y;
    inserts = m.inserts;
    stale = m.stale;
    cached = Lru.mem t.cache name;
  }

let info t name = Option.map (info_of t name) (Hashtbl.find_opt t.index name)

let infos t =
  List.filter_map (fun name -> info t name) (names t)

(* The entry's summary: the resident copy, or else a parse of its
   snapshot file.  With [~resolve:true] (the query path) the lookup
   promotes and counts a hit or a miss, and the parsed summary is cached;
   with [~resolve:false] it only peeks, leaving recency, hit rate and
   residency as they were.  A resolving hit allocates nothing.
   @raise Invalid_argument if the snapshot is unreadable. *)
let summary_exn t name ~resolve =
  match
    if resolve then Lru.find_exn t.cache name
    else match Lru.peek t.cache name with Some s -> s | None -> raise Not_found
  with
  | summary -> summary
  | exception Not_found -> (
    match Snapshot.load ~path:(Snapshot.path ~dir:t.dir name) with
    | Ok e ->
      if resolve then Lru.add t.cache name e.Snapshot.summary;
      e.Snapshot.summary
    | Error msg ->
      invalid_arg (Printf.sprintf "Catalog.Service: snapshot of %S unreadable: %s" name msg))

(* Rewrite the entry's snapshot from current metadata. *)
let persist t name (m : meta) =
  Snapshot.save ~dir:t.dir
    {
      Snapshot.name;
      spec = m.spec;
      inserts = m.inserts;
      stale = m.stale;
      provenance = m.provenance;
      summary = summary_exn t name ~resolve:false;
    };
  Telemetry.Metrics.incr t.m_snapshot_writes

(* One constructor per summary kind: parse the spec, build the summary,
   and turn a rejected input into [Error].  The foreground builds and the
   background rebuild worker share them, so a rebuild yields the bits a
   build on the same sample would.  They touch no service state. *)
let range_summary ~cells ~spec ~domain sample =
  match Selest.Estimator.spec_of_string spec with
  | Error e -> Error e
  | Ok parsed -> (
    match
      Selest.Stored.of_estimator ~cells ~domain (Selest.Estimator.build parsed ~domain sample)
    with
    | summary -> Ok (Selest.Stored.Range summary)
    | exception Invalid_argument msg -> Error msg)

let rect_summary ~spec ~domain_x ~domain_y points =
  match Selest.Stored.rect_spec_of_string spec with
  | Error e -> Error e
  | Ok (bins_x, bins_y) -> (
    match Selest.Stored.rect_of_points ~domain_x ~domain_y ~bins_x ~bins_y points with
    | rect -> Ok (Selest.Stored.Rect rect)
    | exception Invalid_argument msg -> Error msg)

let join_summary ~spec ~domain ~n_r ~n_s sample_r sample_s =
  match Selest.Stored.join_spec_of_string spec with
  | Error e -> Error e
  | Ok buckets -> (
    match Selest.Stored.join_of_samples ~domain ~buckets ~n_r ~n_s sample_r sample_s with
    | join -> Ok (Selest.Stored.Join join)
    | exception Invalid_argument msg -> Error msg)

(* Shared body of every foreground build: the summary is constructed in
   the [catalog.build] span, then index, cache and snapshot move
   together, so a successful build is immediately servable and survives
   a restart. *)
let build_entry t ~who ~name ~spec ~provenance construct =
  if name = "" then Error (who ^ ": entry name must not be empty")
  else if String.contains name '\n' then Error (who ^ ": entry name must not contain newlines")
  else
    match Telemetry.Span.with_span "catalog.build" construct with
    | Error msg -> Error msg
    | Ok summary ->
      let existed = Hashtbl.mem t.index name in
      let m = meta_of summary ~spec ~provenance ~inserts:0 ~stale:false in
      Hashtbl.replace t.index name m;
      Lru.add t.cache name summary;
      persist t name m;
      Telemetry.Metrics.incr t.m_builds;
      if existed then Telemetry.Metrics.incr t.m_rebuilds;
      Telemetry.Metrics.set t.m_entries (float_of_int (Hashtbl.length t.index));
      Ok (info_of t name m)

let build ?provenance t ~name ~spec ~domain ~sample =
  build_entry t ~who:"Catalog.Service.build" ~name ~spec ~provenance (fun () ->
      range_summary ~cells:t.config.cells ~spec ~domain sample)

let build_rect t ~name ~spec ~domain_x ~domain_y ~points =
  build_entry t ~who:"Catalog.Service.build_rect" ~name ~spec ~provenance:None (fun () ->
      rect_summary ~spec ~domain_x ~domain_y points)

let build_join t ~name ~spec ~domain ~n_r ~n_s ~sample_r ~sample_s =
  build_entry t ~who:"Catalog.Service.build_join" ~name ~spec ~provenance:None (fun () ->
      join_summary ~spec ~domain ~n_r ~n_s sample_r sample_s)

let unknown name = Error (Printf.sprintf "unknown catalog entry %S" name)

let kind_mismatch name ~want ~got =
  Error
    (Printf.sprintf "catalog entry %S is a %s entry, not %s" name
       (Selest.Stored.kind_name got) (Selest.Stored.kind_name want))

let rebuild t ~name ~sample =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m when m.kind <> Selest.Stored.Range_kind ->
    kind_mismatch name ~want:Selest.Stored.Range_kind ~got:m.kind
  | Some m ->
    (* The spec's origin is unchanged by refitting it on a fresh sample. *)
    build ?provenance:m.provenance t ~name ~spec:m.spec ~domain:m.domain ~sample

(* Raise the stale flag if the insert budget is spent; returns whether the
   entry transitioned. *)
let refresh_staleness t (m : meta) =
  let was = m.stale in
  if m.inserts >= t.config.rebuild_after_inserts then m.stale <- true;
  if m.stale && not was then Telemetry.Metrics.incr t.m_stale;
  m.stale && not was

let record_inserts t ~name count =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m ->
    m.inserts <- m.inserts + abs count;
    ignore (refresh_staleness t m);
    persist t name m;
    Ok ()

let sync_maintenance t ~name maintenance =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m ->
    m.inserts <- Selest.Maintenance.changed_count maintenance;
    ignore (refresh_staleness t m);
    persist t name m;
    Ok ()

let invalidate t name =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m ->
    if not m.stale then begin
      m.stale <- true;
      Telemetry.Metrics.incr t.m_stale
    end;
    (* Persist first: the summary may only be resident in the cache copy
       we are about to drop. *)
    persist t name m;
    Lru.remove t.cache name;
    Ok ()

let drop t name =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some _ ->
    Hashtbl.remove t.index name;
    Lru.remove t.cache name;
    Snapshot.delete ~dir:t.dir name;
    Telemetry.Metrics.set t.m_entries (float_of_int (Hashtbl.length t.index));
    Ok ()

(* One cache access per call: a hit, or a miss that loads the snapshot
   into the cache.  Raises on unknown names and unreadable snapshots.
   The hit path allocates nothing. *)
let resolve_exn t name =
  if not (Hashtbl.mem t.index name) then
    invalid_arg (Printf.sprintf "Catalog.Service: unknown entry %S" name);
  summary_exn t name ~resolve:true

(* The range-query paths keep their historical exception contract; a
   range request against a rect/join entry is a caller error of the same
   class as an unknown name. *)
let resolve_range_exn t name =
  match resolve_exn t name with
  | Selest.Stored.Range s -> s
  | other ->
    invalid_arg
      (Printf.sprintf "Catalog.Service: entry %S is a %s entry, not range" name
         (Selest.Stored.kind_name (Selest.Stored.any_kind other)))

let answer t requests =
  Telemetry.Metrics.add t.m_batch_requests (Array.length requests);
  Telemetry.Span.with_span ~hist:t.m_answer_seconds "catalog.answer" (fun () ->
      (* Group per entry: each distinct name costs one cache access per
         batch, however many requests mention it. *)
      let resolved = Hashtbl.create 8 in
      Array.iter
        (fun (name, _, _) ->
          if not (Hashtbl.mem resolved name) then
            Hashtbl.replace resolved name (resolve_range_exn t name))
        requests;
      Array.map
        (fun (name, a, b) -> Selest.Stored.selectivity (Hashtbl.find resolved name) ~a ~b)
        requests)

(* The served fast path.  Structure-of-arrays in, answers out, zero
   allocation at steady state: each maximal run of equal names costs one
   [resolve_exn] (a no-alloc cache hit once the summary is resident) and
   one [Stored.selectivity_into] over its slice, which is bit-identical
   to the scalar probes [answer] makes.  Timing uses the manual
   [Span.start_ns]/[record] pair instead of [with_span] so no closure is
   built per batch. *)
let answer_into t ~n ~names ~a ~b ~out =
  if n < 0 then invalid_arg "Catalog.Service.answer_into: negative batch size";
  if Array.length names < n || Array.length a < n || Array.length b < n
     || Array.length out < n
  then invalid_arg "Catalog.Service.answer_into: arrays shorter than n";
  Telemetry.Metrics.add t.m_batch_requests n;
  let t0 = Telemetry.Span.start_ns () in
  let i = ref 0 in
  while !i < n do
    let name = Array.unsafe_get names !i in
    let summary = resolve_range_exn t name in
    let j = ref (!i + 1) in
    while !j < n && String.equal (Array.unsafe_get names !j) name do
      incr j
    done;
    Selest.Stored.selectivity_into summary ~pos:!i ~len:(!j - !i) ~a ~b ~out;
    i := !j
  done;
  (* Guarded so the disabled path builds no [Some hist] cell per batch. *)
  if t0 <> 0 then Telemetry.Span.record ~hist:t.m_answer_seconds ~start_ns:t0 "catalog.answer"

let answer_one t ~name ~a ~b =
  if not (mem t name) then unknown name
  else
    match resolve_range_exn t name with
    | exception Invalid_argument msg -> Error msg
    | summary -> Ok (Selest.Stored.selectivity summary ~a ~b)

(* The rect/join answer paths: one cache access, then pure arithmetic in
   [Selest.Stored] — the same functions Multidim.Hist2d and Join.Ineqjoin
   delegate to, which is what makes a served answer bit-identical to the
   direct library call. *)
let answer_rect t ~name ~x_lo ~x_hi ~y_lo ~y_hi =
  if not (mem t name) then unknown name
  else
    match resolve_exn t name with
    | exception Invalid_argument msg -> Error msg
    | Selest.Stored.Rect r ->
      Telemetry.Metrics.incr t.m_batch_requests;
      Ok (Selest.Stored.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi)
    | other ->
      kind_mismatch name ~want:Selest.Stored.Rect_kind
        ~got:(Selest.Stored.any_kind other)

let answer_join t ~name ~pred =
  if not (mem t name) then unknown name
  else
    match resolve_exn t name with
    | exception Invalid_argument msg -> Error msg
    | Selest.Stored.Join j ->
      Telemetry.Metrics.incr t.m_batch_requests;
      Ok (Selest.Stored.join_estimate j ~pred)
    | other ->
      kind_mismatch name ~want:Selest.Stored.Join_kind
        ~got:(Selest.Stored.any_kind other)

let cache_stats t = Lru.stats t.cache

(* FNV-1a over the entry name.  Stable across processes and OCaml
   versions; used to derive per-entry reservoir seeds.  (Hashtbl.hash is
   explicitly not that: its value is version-dependent.) *)
let fnv1a name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    name;
  !h

(* ---------------- adaptivity ---------------- *)

let enable_adaptive ?(config = default_adaptive_config) t =
  if config.reservoir_capacity < 1 then
    invalid_arg "Catalog.Service.enable_adaptive: reservoir_capacity must be >= 1";
  if config.min_rebuild_sample < 1 then
    invalid_arg "Catalog.Service.enable_adaptive: min_rebuild_sample must be >= 1";
  if config.refresh_after_observes < 1 then
    invalid_arg "Catalog.Service.enable_adaptive: refresh_after_observes must be >= 1";
  if not (config.learning_rate > 0.0 && config.learning_rate <= 1.0) then
    invalid_arg "Catalog.Service.enable_adaptive: learning_rate must be in (0, 1]";
  match t.adaptive with
  | Some _ -> invalid_arg "Catalog.Service.enable_adaptive: already enabled"
  | None ->
    t.adaptive <- Some { acfg = config; states = Hashtbl.create 16; pending = None }

let adaptive_enabled t = Option.is_some t.adaptive

let adaptive_disabled =
  Error "adaptive serving is disabled (start the server with --adaptive)"

(* Seed the per-entry feedback histogram from the entry's current summary,
   at the summary's own grid resolution so a later refresh loses nothing.
   Only range summaries carry one; rect/join adaptivity is
   reservoir-rebuild only. *)
let seed_feedback rt (m : meta) summary =
  match (summary : Selest.Stored.any) with
  | Selest.Stored.Range s ->
    Some
      (Feedback.Adaptive.create ~buckets:m.cells ~learning_rate:rt.acfg.learning_rate
         ~domain:m.domain
         ~base:(fun ~a ~b -> Selest.Stored.selectivity s ~a ~b)
         ())
  | Selest.Stored.Rect _ | Selest.Stored.Join _ -> None

let adaptive_state t rt name (m : meta) =
  match Hashtbl.find_opt rt.states name with
  | Some st -> Ok st
  | None -> (
    match resolve_exn t name with
    | exception Invalid_argument msg -> Error msg
    | summary ->
      let seed = Int64.logxor rt.acfg.adaptive_seed (fnv1a name) in
      let st =
        {
          reservoir =
            Online.Reservoir.create ~seed ~capacity:rt.acfg.reservoir_capacity ();
          reservoir_y =
            (if m.kind = Selest.Stored.Rect_kind then
               Some (Online.Reservoir.create ~seed ~capacity:rt.acfg.reservoir_capacity ())
             else None);
          feedback = seed_feedback rt m summary;
          observes_since_refresh = 0;
          rebuild_failed = None;
        }
      in
      Hashtbl.replace rt.states name st;
      Ok st)

let insert t ~name values =
  match t.adaptive with
  | None -> adaptive_disabled
  | Some rt -> (
    match Hashtbl.find_opt t.index name with
    | None -> unknown name
    | Some m ->
      if Array.exists (fun v -> not (Float.is_finite v)) values then
        Error "insert: values must be finite"
      else if m.kind = Selest.Stored.Rect_kind && Array.length values mod 2 <> 0 then
        Error "insert: rect entries take flattened (x, y) pairs; even length required"
      else (
        match adaptive_state t rt name m with
        | Error _ as e -> e
        | Ok st ->
          let inserted =
            match st.reservoir_y with
            | None ->
              (* Range values, or join R-side values: one reservoir. *)
              Online.Reservoir.add_array st.reservoir values;
              Array.length values
            | Some ry ->
              (* Rect: de-interleave the flattened pairs into the two
                 lockstep reservoirs (same seed, same seen count — same
                 slot decisions, so pairing survives sampling). *)
              let pairs = Array.length values / 2 in
              for p = 0 to pairs - 1 do
                Online.Reservoir.add st.reservoir values.(2 * p);
                Online.Reservoir.add ry values.((2 * p) + 1)
              done;
              pairs
          in
          st.rebuild_failed <- None;
          m.inserts <- m.inserts + inserted;
          (* Persist only on the stale transition: one snapshot write per
             budget cycle instead of one per insert frame.  Staleness
             still survives restarts once tripped; sub-budget counts are
             the acceptable loss on kill. *)
          if refresh_staleness t m then persist t name m;
          Telemetry.Metrics.add t.m_adaptive_inserts inserted;
          Ok (Online.Reservoir.size st.reservoir, Online.Reservoir.seen st.reservoir)))

let observe t ~name ~a ~b ~actual =
  match t.adaptive with
  | None -> adaptive_disabled
  | Some rt -> (
    match Hashtbl.find_opt t.index name with
    | None -> unknown name
    | Some m ->
      if not (Float.is_finite actual && actual >= 0.0 && actual <= 1.0) then
        Error "observe: actual selectivity must be in [0, 1]"
      else if not (Float.is_finite a && Float.is_finite b) then
        Error "observe: range bounds must be finite"
      else (
        match adaptive_state t rt name m with
        | Error _ as e -> e
        | Ok st -> (
          match st.feedback with
          | None ->
            Error
              (Printf.sprintf
                 "observe: entry %S is a %s entry; only range entries take feedback"
                 name (Selest.Stored.kind_name m.kind))
          | Some fb ->
            Feedback.Adaptive.observe fb ~a ~b ~actual;
            st.observes_since_refresh <- st.observes_since_refresh + 1;
            Telemetry.Metrics.incr t.m_observations;
            Ok (Feedback.Adaptive.selectivity fb ~a ~b))))

(* Install [summary] as the entry's served version: cache, metadata and
   snapshot move together, and the feedback histogram is reseeded from the
   new summary so refinement continues against what is actually served.
   The swap happens entirely in the owner between [answer_into] calls —
   a read sees the old bits or the new bits, never a torn mix. *)
let install_summary t rt name (m : meta) (st : astate) summary ~reset_staleness =
  Lru.add t.cache name summary;
  m.cells <- Selest.Stored.any_cells summary;
  if reset_staleness then begin
    m.inserts <- 0;
    m.stale <- false
  end;
  persist t name m;
  st.feedback <- seed_feedback rt m summary;
  st.observes_since_refresh <- 0;
  Telemetry.Metrics.incr t.m_swaps

(* Everything the worker needs is computed here, in the owner: the
   reservoir samples, the rect lockstep check, and for join the current
   summary's S side and relation sizes (inserts stream into R, so a join
   rebuild re-buckets R and keeps S).  The worker then only runs the
   kind's constructor and never touches service state. *)
let launch_rebuild t rt name (m : meta) (st : astate) =
  let p =
    { p_name = name; p_m = Mutex.create (); p_result = None; p_thread = None }
  in
  let spec = m.spec and domain = m.domain in
  let sample = Online.Reservoir.sample st.reservoir in
  let job : unit -> (Selest.Stored.any, string) result =
    match m.kind with
    | Selest.Stored.Range_kind ->
      let cells = m.cells in
      fun () -> range_summary ~cells ~spec ~domain sample
    | Selest.Stored.Rect_kind ->
      let ys = Option.fold ~none:[||] ~some:Online.Reservoir.sample st.reservoir_y in
      if Array.length sample <> Array.length ys then fun () ->
        Error "rect rebuild: reservoirs out of lockstep"
      else
        let points = Array.map2 (fun x y -> (x, y)) sample ys in
        let domain_y = Option.value ~default:domain m.domain_y in
        fun () -> rect_summary ~spec ~domain_x:domain ~domain_y points
    | Selest.Stored.Join_kind -> (
      match summary_exn t name ~resolve:false with
      | Selest.Stored.Join j ->
        let n_r, n_s = Selest.Stored.join_sizes j in
        let sample_s = snd (Selest.Stored.join_samples j) in
        fun () -> join_summary ~spec ~domain ~n_r ~n_s sample sample_s
      | _ | (exception Invalid_argument _) ->
        fun () -> Error "join rebuild: current summary unreadable")
  in
  rt.pending <- Some p;
  let worker () =
    let result = job () in
    Mutex.lock p.p_m;
    p.p_result <- Some result;
    Mutex.unlock p.p_m
  in
  p.p_thread <- Some (Thread.create worker ())

let adaptive_tick t =
  match t.adaptive with
  | None -> 0
  | Some rt ->
    let swaps = ref 0 in
    (* 1. Reap a finished background rebuild and swap it in. *)
    (match rt.pending with
    | Some p ->
      let result =
        Mutex.lock p.p_m;
        let r = p.p_result in
        Mutex.unlock p.p_m;
        r
      in
      (match result with
      | None -> () (* still running *)
      | Some r ->
        Option.iter Thread.join p.p_thread;
        rt.pending <- None;
        (match (r, Hashtbl.find_opt t.index p.p_name) with
        | _, None -> () (* entry dropped while rebuilding; discard *)
        | Ok summary, Some m ->
          (match Hashtbl.find_opt rt.states p.p_name with
          | None -> ()
          | Some st ->
            install_summary t rt p.p_name m st summary ~reset_staleness:true;
            Telemetry.Metrics.incr t.m_builds;
            Telemetry.Metrics.incr t.m_rebuilds;
            incr swaps)
        | Error msg, Some _ ->
          Option.iter
            (fun st -> st.rebuild_failed <- Some msg)
            (Hashtbl.find_opt rt.states p.p_name)))
    | None -> ());
    (* 2. Apply every due feedback refresh synchronously (probing the
       ST-histogram over the grid is microseconds; no worker needed). *)
    Hashtbl.iter
      (fun name st ->
        match st.feedback with
        | Some fb when st.observes_since_refresh >= rt.acfg.refresh_after_observes -> (
          match Hashtbl.find_opt t.index name with
          | None -> ()
          | Some m -> (
            match
              Selest.Stored.of_fn ~cells:m.cells ~domain:m.domain (fun ~a ~b ->
                  Feedback.Adaptive.selectivity fb ~a ~b)
            with
            | summary ->
              install_summary t rt name m st (Selest.Stored.Range summary)
                ~reset_staleness:false;
              incr swaps
            | exception Invalid_argument _ ->
              (* A non-finite cell: keep serving the installed summary and
                 wait for the next batch of observations before retrying. *)
              st.observes_since_refresh <- 0))
        | _ -> ())
      rt.states;
    (* 3. Launch at most one background resample rebuild for the first
       stale entry with enough reservoir (sorted order for determinism). *)
    if rt.pending = None then begin
      let due name =
        match (Hashtbl.find_opt t.index name, Hashtbl.find_opt rt.states name) with
        | Some m, Some st
          when m.stale
               && st.rebuild_failed = None
               && Online.Reservoir.size st.reservoir >= rt.acfg.min_rebuild_sample ->
          Some (m, st)
        | _ -> None
      in
      let rec first = function
        | [] -> ()
        | name :: rest -> (
          match due name with
          | Some (m, st) -> launch_rebuild t rt name m st
          | None -> first rest)
      in
      first (names t)
    end;
    !swaps

(* Joining first guarantees [p_result] is set (the worker stores it
   before exiting), so the final tick always reaps — no rebuild is ever
   abandoned mid-flight by an orderly shutdown. *)
let adaptive_drain t =
  match t.adaptive with
  | None -> ()
  | Some rt ->
    (match rt.pending with
    | Some p -> Option.iter Thread.join p.p_thread
    | None -> ());
    ignore (adaptive_tick t)

type adaptive_stats = {
  tracked_entries : int;
  sampled_values : int;
  observations : int;
  rebuild_in_flight : bool;
  last_rebuild_error : string option;
}

let adaptive_stats t =
  match t.adaptive with
  | None ->
    {
      tracked_entries = 0;
      sampled_values = 0;
      observations = 0;
      rebuild_in_flight = false;
      last_rebuild_error = None;
    }
  | Some rt ->
    let sampled = ref 0 and obs = ref 0 and err = ref None in
    Hashtbl.iter
      (fun _ st ->
        sampled := !sampled + Online.Reservoir.seen st.reservoir;
        (match st.feedback with
        | Some fb -> obs := !obs + Feedback.Adaptive.feedback_count fb
        | None -> ());
        if !err = None then err := st.rebuild_failed)
      rt.states;
    {
      tracked_entries = Hashtbl.length rt.states;
      sampled_values = !sampled;
      observations = !obs;
      rebuild_in_flight = rt.pending <> None;
      last_rebuild_error = !err;
    }

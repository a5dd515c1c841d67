(* The catalog serving layer: LRU residency policy, atomic snapshot
   persistence with skip-and-report recovery, staleness tracking, the
   agreement of the query entry points, and background rebuilds that
   reproduce a foreground build. *)

module Lru = Catalog.Lru
module Snapshot = Catalog.Snapshot
module Service = Catalog.Service

let check = Alcotest.check

let fresh_dir () =
  let base = Filename.temp_file "selest_catalog_test" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  base

(* A deterministic skewed sample on the integer domain [0, 96]. *)
let sample_a = Array.init 500 (fun i -> float_of_int (i * i mod 97))
let sample_b = Array.init 400 (fun i -> float_of_int (i mod 61))
let domain_a = (-0.5, 96.5)
let domain_b = (-0.5, 60.5)

let or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ---------------- Lru ---------------- *)

let test_lru_eviction () =
  let c = Lru.create ~cache_name:"t-evict" ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check (Alcotest.option Alcotest.int) "promote a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  check (Alcotest.list Alcotest.string) "b evicted, a survived" [ "c"; "a" ] (Lru.keys c);
  check (Alcotest.option Alcotest.int) "b gone" None (Lru.find c "b");
  let s = Lru.stats c in
  check Alcotest.int "hits" 1 s.Lru.hits;
  check Alcotest.int "misses" 1 s.Lru.misses;
  check Alcotest.int "evictions" 1 s.Lru.evictions

let test_lru_replace () =
  let c = Lru.create ~cache_name:"t-replace" ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;
  check Alcotest.int "still two entries" 2 (Lru.length c);
  check Alcotest.int "no eviction on replace" 0 (Lru.stats c).Lru.evictions;
  check (Alcotest.option Alcotest.int) "replaced value" (Some 10) (Lru.find c "a");
  Lru.remove c "a";
  check Alcotest.int "removed" 1 (Lru.length c);
  check Alcotest.int "remove is not an eviction" 0 (Lru.stats c).Lru.evictions;
  check (Alcotest.list Alcotest.string) "peek does not promote" [ "b" ]
    (ignore (Lru.peek c "b");
     Lru.keys c)

(* ---------------- Snapshot ---------------- *)

let stored_of sample domain =
  Selest.Stored.Range
    (Selest.Stored.of_sample ~cells:32 ~spec:Selest.Estimator.Sampling ~domain sample)

let test_snapshot_round_trip () =
  let dir = fresh_dir () in
  let entry =
    {
      Snapshot.name = "orders/amount n(20)";
      spec = "ewh:16";
      inserts = 123;
      stale = true;
      provenance = Some "advisor v1 spec=ewh:16 regret=1.020";
      summary = stored_of sample_a domain_a;
    }
  in
  Snapshot.save ~dir entry;
  let p = Snapshot.path ~dir entry.Snapshot.name in
  check Alcotest.bool "snapshot file exists" true (Sys.file_exists p);
  check Alcotest.bool "file name is sanitized" true
    (String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '%' -> true
         | _ -> false)
       (Snapshot.file_name entry.Snapshot.name));
  check Alcotest.bool "no tmp file left behind" false (Sys.file_exists (p ^ ".tmp"));
  let loaded = or_fail (Snapshot.load ~path:p) in
  check Alcotest.string "name" entry.Snapshot.name loaded.Snapshot.name;
  check Alcotest.string "spec" "ewh:16" loaded.Snapshot.spec;
  check Alcotest.int "inserts" 123 loaded.Snapshot.inserts;
  check Alcotest.bool "stale" true loaded.Snapshot.stale;
  check (Alcotest.option Alcotest.string) "provenance survives the round trip"
    entry.Snapshot.provenance loaded.Snapshot.provenance;
  check Alcotest.string "summary bit-identical"
    (Selest.Stored.any_to_string entry.Snapshot.summary)
    (Selest.Stored.any_to_string loaded.Snapshot.summary)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_snapshot_corrupt_skip () =
  let dir = fresh_dir () in
  Snapshot.save ~dir
    { Snapshot.name = "good1"; spec = "ewh:8"; inserts = 0; stale = false;
      provenance = None; summary = stored_of sample_a domain_a };
  Snapshot.save ~dir
    { Snapshot.name = "good2"; spec = "sampling"; inserts = 0; stale = false;
      provenance = None; summary = stored_of sample_b domain_b };
  write_file (Filename.concat dir "corrupt.summary") "selest-catalog v1\nname broken\n";
  write_file (Filename.concat dir "badspec.summary")
    "selest-catalog v1\nname x\nspec nosuchspec\ninserts 0\nstale 0\nselest-stored v1\ndomain 0 1\ncells 1\n1\n";
  write_file (Filename.concat dir "notes.txt") "not a snapshot; ignored by extension";
  let entries, skipped = Snapshot.load_dir ~dir () in
  check (Alcotest.list Alcotest.string) "survivors load" [ "good1"; "good2" ]
    (List.map (fun (e : Snapshot.entry) -> e.Snapshot.name) entries);
  check (Alcotest.list Alcotest.string) "corrupt files reported"
    [ "badspec.summary"; "corrupt.summary" ]
    (List.sort String.compare (List.map fst skipped))

let test_snapshot_orphan_tmp_sweep () =
  let dir = fresh_dir () in
  Snapshot.save ~dir
    { Snapshot.name = "good"; spec = "ewh:8"; inserts = 0; stale = false;
      provenance = None; summary = stored_of sample_a domain_a };
  (* A crash between temp-write and rename leaves the temp file behind. *)
  let orphan = Filename.concat dir ("dead" ^ Snapshot.tmp_extension) in
  write_file orphan "selest-catalog v1\nname dead\ntruncated mid-write";
  let entries, skipped = Snapshot.load_dir ~dir () in
  check (Alcotest.list Alcotest.string) "survivor loads" [ "good" ]
    (List.map (fun (e : Snapshot.entry) -> e.Snapshot.name) entries);
  check (Alcotest.list Alcotest.string) "orphan reported in the skip list"
    [ "dead" ^ Snapshot.tmp_extension ]
    (List.map fst skipped);
  check Alcotest.bool "orphan deleted from disk" false (Sys.file_exists orphan);
  (* The sweep reaches Service.open_dir's warning channel too. *)
  write_file orphan "again";
  let svc, warnings = Service.open_dir dir in
  check Alcotest.int "open_dir reports the sweep" 1 (List.length warnings);
  check Alcotest.bool "swept before serving" false (Sys.file_exists orphan);
  check (Alcotest.list Alcotest.string) "catalog unaffected" [ "good" ] (Service.names svc)

(* ---------------- Service ---------------- *)

let build_two svc =
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  ignore
    (or_fail
       (Service.build svc ~name:"users/age" ~spec:"sampling" ~domain:domain_b
          ~sample:sample_b))

let requests =
  [|
    ("orders/amount", 3.0, 40.0);
    ("users/age", 0.0, 30.5);
    ("orders/amount", -10.0, 200.0);
    ("users/age", 59.0, 60.0);
    ("orders/amount", 50.0, 50.0);
  |]

let test_service_reopen () =
  let dir = fresh_dir () in
  let svc, warnings = Service.open_dir dir in
  check Alcotest.int "fresh dir has no warnings" 0 (List.length warnings);
  build_two svc;
  let before = Service.answer svc requests in
  (* "Kill": drop the handle, reopen from disk alone. *)
  let svc2, warnings2 = Service.open_dir dir in
  check Alcotest.int "clean reopen has no warnings" 0 (List.length warnings2);
  check (Alcotest.list Alcotest.string) "entries survive"
    [ "orders/amount"; "users/age" ] (Service.names svc2);
  let after = Service.answer svc2 requests in
  check Alcotest.bool "answers bit-identical across reopen" true (before = after);
  (* Inject a corrupt snapshot: reopen skips it, reports it, survivors serve. *)
  write_file (Filename.concat dir "zzz-corrupt.summary") "garbage";
  let svc3, warnings3 = Service.open_dir dir in
  check Alcotest.int "corrupt entry reported" 1 (List.length warnings3);
  check Alcotest.string "reported file" "zzz-corrupt.summary" (fst (List.hd warnings3));
  check (Alcotest.list Alcotest.string) "survivors keep serving"
    [ "orders/amount"; "users/age" ] (Service.names svc3);
  check Alcotest.bool "survivor answers intact" true (Service.answer svc3 requests = before)

let multikind_points =
  Array.init 300 (fun i -> (float_of_int (i * 7 mod 97), float_of_int (i * i mod 61)))

(* Two range entries, one rect entry and one join entry. *)
let build_multikind svc =
  build_two svc;
  ignore
    (or_fail
       (Service.build_rect svc ~name:"orders/amount_x_age" ~spec:"hist2d:8"
          ~domain_x:domain_a ~domain_y:domain_b ~points:multikind_points));
  ignore
    (or_fail
       (Service.build_join svc ~name:"orders_join_users" ~spec:"edh:16" ~domain:domain_a
          ~n_r:5000 ~n_s:4000 ~sample_r:sample_a ~sample_s:sample_b))

(* All three summary kinds persist through the same snapshot layer:
   build range + rect + join, kill the handle, reopen, and require
   every answer bit-identical and every info kind-faithful. *)
let test_multikind_reopen () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_multikind svc;
  let rect_queries =
    [ (3.0, 40.0, 0.0, 30.0); (17.0, 17.0, 4.0, 4.0); (-10.0, 200.0, -10.0, 100.0) ]
  in
  let answers_of s =
    List.map
      (fun (x_lo, x_hi, y_lo, y_hi) ->
        or_fail (Service.answer_rect s ~name:"orders/amount_x_age" ~x_lo ~x_hi ~y_lo ~y_hi))
      rect_queries
    @ List.map
        (fun pred -> or_fail (Service.answer_join s ~name:"orders_join_users" ~pred))
        [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ]
  in
  let before = answers_of svc in
  let svc2, warnings2 = Service.open_dir dir in
  check Alcotest.int "clean reopen has no warnings" 0 (List.length warnings2);
  check Alcotest.bool "rect/join answers bit-identical across reopen" true
    (List.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       before (answers_of svc2));
  (* Kind metadata survives the round trip. *)
  let kind_of name =
    match Service.info svc2 name with
    | Some i -> Selest.Stored.kind_name i.Service.kind
    | None -> Alcotest.failf "entry %s lost across reopen" name
  in
  check Alcotest.string "range kind" "range" (kind_of "orders/amount");
  check Alcotest.string "rect kind" "rect" (kind_of "orders/amount_x_age");
  check Alcotest.string "join kind" "join" (kind_of "orders_join_users");
  (match Service.info svc2 "orders/amount_x_age" with
  | Some i ->
    check Alcotest.bool "rect domain_y survives" true (i.Service.domain_y = Some domain_b)
  | None -> Alcotest.fail "rect entry lost");
  (* Kind mismatches answer Error, never raise. *)
  (match Service.answer_rect svc2 ~name:"orders/amount" ~x_lo:0.0 ~x_hi:1.0 ~y_lo:0.0 ~y_hi:1.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_rect accepted a range entry");
  (match Service.answer_join svc2 ~name:"orders/amount_x_age" ~pred:Selest.Stored.Join_eq with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_join accepted a rect entry");
  match Service.answer_one svc2 ~name:"orders_join_users" ~a:0.0 ~b:1.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_one accepted a join entry"

(* The three range entry points answer from the same summary: a batch
   whose names alternate (so [answer_into] resolves every request on its
   own run) agrees bit-for-bit with the structure-of-arrays batch and
   with single queries. *)
let test_answer_entry_points_agree () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let interleaved =
    [|
      ("orders/amount", 3.0, 40.0);
      ("users/age", 0.0, 30.5);
      ("orders/amount", -10.0, 200.0);
      ("users/age", 59.0, 60.0);
    |]
  in
  let batch = Service.answer svc interleaved in
  let n = Array.length interleaved in
  let out = Array.make n nan in
  Service.answer_into svc ~n
    ~names:(Array.map (fun (name, _, _) -> name) interleaved)
    ~a:(Array.map (fun (_, a, _) -> a) interleaved)
    ~b:(Array.map (fun (_, _, b) -> b) interleaved)
    ~out;
  Array.iteri
    (fun i (name, a, b) ->
      check Alcotest.bool (Printf.sprintf "request %d: answer = answer_into" i) true
        (Float.equal batch.(i) out.(i));
      check Alcotest.bool (Printf.sprintf "request %d: answer = answer_one" i) true
        (Float.equal batch.(i) (or_fail (Service.answer_one svc ~name ~a ~b))))
    interleaved;
  Alcotest.check_raises "unknown name raises"
    (Invalid_argument "Catalog.Service: unknown entry \"nope\"") (fun () ->
      ignore (Service.answer svc [| ("nope", 0.0, 1.0) |]));
  match Service.answer_one svc ~name:"nope" ~a:0.0 ~b:1.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_one accepted an unknown name"

(* Reopening keeps the summaries it parsed while indexing, up to the
   cache capacity, so the first query of each entry is a hit rather than
   a second parse of the same file.  A capacity-1 reopen keeps only the
   first, counts no eviction for the rest, and serves the same bits. *)
let test_reopen_keeps_parsed_summaries () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_multikind svc;
  let answer_each s =
    [
      or_fail (Service.answer_one s ~name:"orders/amount" ~a:3.0 ~b:40.0);
      or_fail (Service.answer_one s ~name:"users/age" ~a:0.0 ~b:30.5);
      or_fail
        (Service.answer_rect s ~name:"orders/amount_x_age" ~x_lo:3.0 ~x_hi:40.0 ~y_lo:0.0
           ~y_hi:30.0);
      or_fail (Service.answer_join s ~name:"orders_join_users" ~pred:Selest.Stored.Join_lt);
    ]
  in
  let warm, _ = Service.open_dir dir in
  let warm_answers = answer_each warm in
  let s = Service.cache_stats warm in
  check Alcotest.int "every entry answered from the open's parse: no misses" 0 s.Lru.misses;
  check Alcotest.int "one hit per entry" 4 s.Lru.hits;
  let small, _ =
    Service.open_dir ~config:{ Service.default_config with Service.capacity = 1 } dir
  in
  check Alcotest.int "a capacity-1 reopen counts no eviction" 0
    (Service.cache_stats small).Lru.evictions;
  check Alcotest.bool "capacity-1 answers bit-identical" true
    (List.for_all2 Float.equal warm_answers (answer_each small))

(* The serving fast path: structure-of-arrays answers must be
   bit-identical to [answer], and once the summaries are resident a
   batch over caller-owned buffers must not touch the minor heap. *)
let test_answer_into () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let n = Array.length requests in
  let names = Array.map (fun (name, _, _) -> name) requests in
  let qa = Array.map (fun (_, a, _) -> a) requests in
  let qb = Array.map (fun (_, _, b) -> b) requests in
  let out = Array.make n 0.0 in
  let reference = Service.answer svc requests in
  Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out;
  check Alcotest.bool "answer_into bit-identical to answer" true (reference = out);
  (* Partial batch: only the first n slots are touched. *)
  let out2 = Array.make (n + 2) (-1.0) in
  Service.answer_into svc ~n:2 ~names ~a:qa ~b:qb ~out:out2;
  check Alcotest.bool "slots past n untouched" true (out2.(2) = -1.0 && out2.(n + 1) = -1.0);
  Alcotest.check_raises "negative n"
    (Invalid_argument "Catalog.Service.answer_into: negative batch size") (fun () ->
      Service.answer_into svc ~n:(-1) ~names ~a:qa ~b:qb ~out);
  Alcotest.check_raises "short out"
    (Invalid_argument "Catalog.Service.answer_into: arrays shorter than n") (fun () ->
      Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out:(Array.make 1 0.0));
  (* Steady state: summaries resident, buffers owned by us — repeated
     batches must allocate nothing. *)
  Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out;
  let w0 = Gc.minor_words () in
  for _ = 1 to 200 do
    Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 0.0 then
    Alcotest.failf "answer_into allocated %.0f minor words over %d queries" dw (200 * n)

let test_staleness () =
  let dir = fresh_dir () in
  let config = { Service.default_config with rebuild_after_inserts = 100 } in
  let svc, _ = Service.open_dir ~config dir in
  build_two svc;
  or_fail (Service.record_inserts svc ~name:"orders/amount" 60);
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "under budget: fresh" false i.Service.stale;
  or_fail (Service.record_inserts svc ~name:"orders/amount" (-40));
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "deletes count as change; budget spent" true i.Service.stale;
  check Alcotest.int "inserts accumulated" 100 i.Service.inserts;
  (* Staleness survives a restart. *)
  let svc2, _ = Service.open_dir ~config dir in
  let i2 = Option.get (Service.info svc2 "orders/amount") in
  check Alcotest.bool "stale after reopen" true i2.Service.stale;
  check Alcotest.int "insert count after reopen" 100 i2.Service.inserts;
  (* Rebuild clears it. *)
  let i3 = or_fail (Service.rebuild svc2 ~name:"orders/amount" ~sample:sample_a) in
  check Alcotest.bool "rebuild clears staleness" false i3.Service.stale;
  check Alcotest.int "rebuild resets inserts" 0 i3.Service.inserts;
  check Alcotest.string "rebuild keeps the spec" "ewh:16" i3.Service.spec

let test_invalidate_and_sync () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  ignore (Service.answer svc [| ("users/age", 0.0, 10.0) |]);
  check Alcotest.bool "cached after a query" true
    (Option.get (Service.info svc "users/age")).Service.cached;
  or_fail (Service.invalidate svc "users/age");
  let i = Option.get (Service.info svc "users/age") in
  check Alcotest.bool "invalidate marks stale" true i.Service.stale;
  check Alcotest.bool "invalidate drops the hot copy" false i.Service.cached;
  let svc2, _ = Service.open_dir dir in
  check Alcotest.bool "invalidation persists" true
    (Option.get (Service.info svc2 "users/age")).Service.stale;
  (* Maintenance wrapper feeding the catalog's update counts. *)
  let m =
    Selest.Maintenance.create ~spec:(Selest.Estimator.Equi_width (Selest.Estimator.Fixed_bins 16))
      ~domain:domain_a ~sample:sample_a ~n_records:100_000 ()
  in
  Selest.Maintenance.record_inserts m 42;
  or_fail (Service.sync_maintenance svc ~name:"orders/amount" m);
  check Alcotest.int "maintenance changed_count mirrored" 42
    (Option.get (Service.info svc "orders/amount")).Service.inserts;
  (* Drop removes everything. *)
  or_fail (Service.drop svc "orders/amount");
  check Alcotest.bool "dropped from index" false (Service.mem svc "orders/amount");
  check Alcotest.bool "snapshot file removed" false
    (Sys.file_exists (Snapshot.path ~dir "orders/amount"))

let test_cache_pressure () =
  let dir = fresh_dir () in
  let config = { Service.default_config with capacity = 1 } in
  let svc, _ = Service.open_dir ~config dir in
  build_two svc;
  (* build leaves the most recent entry resident; capacity 1 means the
     earlier one was evicted at build time. *)
  ignore (Service.answer svc [| ("users/age", 0.0, 10.0); ("users/age", 1.0, 2.0) |]);
  let s1 = Service.cache_stats svc in
  check Alcotest.int "one resolution for two same-name requests: hit" 1 s1.Lru.hits;
  ignore (Service.answer svc [| ("orders/amount", 0.0, 10.0) |]);
  let s2 = Service.cache_stats svc in
  check Alcotest.int "evicted entry misses" 1 (s2.Lru.misses - s1.Lru.misses);
  check Alcotest.bool "eviction happened" true (s2.Lru.evictions > 0);
  (* The reloaded answer still matches a fresh service's. *)
  let v = Service.answer svc [| ("users/age", 0.0, 30.5) |] in
  let svc2, _ = Service.open_dir dir in
  check Alcotest.bool "reloaded summary bit-identical" true
    (v = Service.answer svc2 [| ("users/age", 0.0, 30.5) |])

(* ---------------- adaptive maintenance ---------------- *)

let adaptive_probes =
  [|
    ("orders/amount", 3.0, 40.0);
    ("orders/amount", -0.5, 96.5);
    ("orders/amount", 50.0, 60.0);
    ("orders/amount", 0.0, 1.0);
  |]

let bits a = Array.map Int64.bits_of_float a

let adaptive_fixture () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 50 }
      dir
  in
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  Service.enable_adaptive svc;
  (dir, svc)

(* The swap contract: between the staleness trip and the reap, every
   read serves the old summary bit-for-bit (never a torn or partially
   rebuilt one); after the reap, the swapped summary is also what a
   reopen loads — cache, metadata and snapshot moved together. *)
let test_adaptive_swap_never_tears () =
  let dir, svc = adaptive_fixture () in
  let before = bits (Service.answer svc adaptive_probes) in
  ignore (or_fail (Service.insert svc ~name:"orders/amount" sample_b));
  check Alcotest.bool "insert past the budget marks stale" true
    (Option.get (Service.info svc "orders/amount")).Service.stale;
  check (Alcotest.array Alcotest.int64) "stale reads serve the old bits" before
    (bits (Service.answer svc adaptive_probes));
  check Alcotest.int "launch tick swaps nothing yet" 0 (Service.adaptive_tick svc);
  (* A rebuild worker is live right now; reads still see the old bits. *)
  check (Alcotest.array Alcotest.int64) "mid-rebuild reads serve the old bits" before
    (bits (Service.answer svc adaptive_probes));
  let deadline = Unix.gettimeofday () +. 5.0 in
  let swaps = ref 0 in
  while !swaps = 0 && Unix.gettimeofday () < deadline do
    swaps := Service.adaptive_tick svc;
    if !swaps = 0 then Thread.delay 0.005
  done;
  check Alcotest.bool "background rebuild swapped in" true (!swaps > 0);
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "swap clears staleness" false i.Service.stale;
  check Alcotest.int "swap resets the insert count" 0 i.Service.inserts;
  let after = bits (Service.answer svc adaptive_probes) in
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "swap persisted without snapshot damage" 0 (List.length skipped);
  check (Alcotest.array Alcotest.int64) "reopen serves the swapped bits" after
    (bits (Service.answer svc2 adaptive_probes))

(* Kill-during-rebuild: drop the service with a rebuild worker in flight
   (no drain — a crash).  The worker only ever touches its private
   sample copy, so the snapshot directory must reopen undamaged, serving
   the old summary bit-for-bit, with the persisted stale flag still set
   so the rebuild re-runs. *)
let test_adaptive_kill_during_rebuild_recovers () =
  let dir, svc = adaptive_fixture () in
  let before = bits (Service.answer svc adaptive_probes) in
  ignore (or_fail (Service.insert svc ~name:"orders/amount" sample_b));
  ignore (Service.adaptive_tick svc);
  (* Crash here: [svc] is abandoned, its worker never reaped. *)
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "no corruption after the kill" 0 (List.length skipped);
  check (Alcotest.array Alcotest.int64) "old summary intact" before
    (bits (Service.answer svc2 adaptive_probes));
  check Alcotest.bool "staleness survived the kill" true
    (Option.get (Service.info svc2 "orders/amount")).Service.stale

(* Orderly shutdown is the opposite contract: adaptive_drain reaps the
   in-flight rebuild instead of discarding it, so the swap lands and
   persists. *)
let test_adaptive_drain_reaps_pending () =
  let dir, svc = adaptive_fixture () in
  ignore (or_fail (Service.insert svc ~name:"orders/amount" sample_b));
  ignore (Service.adaptive_tick svc);
  Service.adaptive_drain svc;
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "drain reaped the rebuild" false i.Service.stale;
  let after = bits (Service.answer svc adaptive_probes) in
  let svc2, _ = Service.open_dir dir in
  check (Alcotest.array Alcotest.int64) "drained swap persisted" after
    (bits (Service.answer svc2 adaptive_probes))

(* A feedback refresh whose refined grid has a non-finite cell must not
   swap: the installed summary keeps serving, and its snapshot stays
   loadable.  Observing [0, 5e-324] on a [-1, 3] grid of 4 cells puts an
   infinite weight into feedback bucket 1 (the error divided by a
   subnormal overlap), and probing cell 0 then multiplies that weight by
   a zero overlap: NaN. *)
let test_adaptive_refresh_rejects_nonfinite () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir ~config:{ Service.default_config with Service.cells = 4 } dir
  in
  ignore
    (or_fail
       (Service.build svc ~name:"r" ~spec:"ewh:4" ~domain:(-1.0, 3.0)
          ~sample:[| -0.5; 0.5; 1.5; 2.5; 2.6 |]));
  Service.enable_adaptive
    ~config:{ Service.default_adaptive_config with Service.refresh_after_observes = 1 }
    svc;
  let probes = [| ("r", -1.0, 0.0); ("r", -0.5, 2.5); ("r", 0.0, 3.0) |] in
  let before = bits (Service.answer svc probes) in
  ignore (or_fail (Service.observe svc ~name:"r" ~a:0.0 ~b:(Float.succ 0.0) ~actual:1.0));
  check Alcotest.int "refresh refused, no swap" 0 (Service.adaptive_tick svc);
  check (Alcotest.array Alcotest.int64) "installed summary still served" before
    (bits (Service.answer svc probes));
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "snapshot still loads" 0 (List.length skipped);
  check (Alcotest.array Alcotest.int64) "reopen serves the same bits" before
    (bits (Service.answer svc2 probes))

(* A background rebuild runs the kind's constructor, as a foreground
   build does: insert a known sample past the insert budget into a
   reservoir large enough to keep all of it, tick until the swap, and
   require the swapped summary byte-equal to [build_*] on the same sample
   in a fresh catalog. *)
let snapshot_summary dir name =
  let entry = or_fail (Snapshot.load ~path:(Snapshot.path ~dir name)) in
  Selest.Stored.any_to_string entry.Snapshot.summary

let rebuilt_summary ~build name values =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 50 }
      dir
  in
  build svc;
  Service.enable_adaptive
    ~config:{ Service.default_adaptive_config with Service.reservoir_capacity = 4096 }
    svc;
  let before = snapshot_summary dir name in
  ignore (or_fail (Service.insert svc ~name values));
  let deadline = Unix.gettimeofday () +. 5.0 in
  let swaps = ref 0 in
  while !swaps = 0 && Unix.gettimeofday () < deadline do
    swaps := Service.adaptive_tick svc;
    if !swaps = 0 then Thread.delay 0.005
  done;
  check Alcotest.int "one background rebuild swapped in" 1 !swaps;
  (before, snapshot_summary dir name)

let built_summary ~build name =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build svc;
  snapshot_summary dir name

let test_rebuild_equals_build_range () =
  let build sample svc =
    ignore
      (or_fail
         (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a ~sample))
  in
  let _, rebuilt = rebuilt_summary ~build:(build sample_a) "orders/amount" sample_b in
  check Alcotest.string "rebuilt range summary = built"
    (built_summary ~build:(build sample_b) "orders/amount")
    rebuilt

let test_rebuild_equals_build_rect () =
  let build points svc =
    ignore
      (or_fail
         (Service.build_rect svc ~name:"xy" ~spec:"hist2d:8" ~domain_x:domain_a
            ~domain_y:domain_b ~points))
  in
  let fresh =
    Array.init 200 (fun i -> (float_of_int (i * 5 mod 97), float_of_int (i mod 61)))
  in
  let flat = Array.concat (Array.to_list (Array.map (fun (x, y) -> [| x; y |]) fresh)) in
  let _, rebuilt = rebuilt_summary ~build:(build multikind_points) "xy" flat in
  check Alcotest.string "rebuilt rect summary = built"
    (built_summary ~build:(build fresh) "xy")
    rebuilt

let test_rebuild_equals_build_join () =
  let build ~sample_r ~sample_s svc =
    ignore
      (or_fail
         (Service.build_join svc ~name:"r_join_s" ~spec:"edh:16" ~domain:domain_a ~n_r:5000
            ~n_s:4000 ~sample_r ~sample_s))
  in
  let before, rebuilt =
    rebuilt_summary ~build:(build ~sample_r:sample_a ~sample_s:sample_b) "r_join_s" sample_b
  in
  (* Inserts stream into R; the rebuild keeps the entry's own S side. *)
  let own_s =
    match Selest.Stored.any_of_string before with
    | Ok (Selest.Stored.Join j) -> snd (Selest.Stored.join_samples j)
    | _ -> Alcotest.fail "join entry's snapshot does not hold a join summary"
  in
  check Alcotest.string "rebuilt join summary = built"
    (built_summary ~build:(build ~sample_r:sample_b ~sample_s:own_s) "r_join_s")
    rebuilt

let test_build_errors () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  (match Service.build svc ~name:"" ~spec:"ewh" ~domain:domain_a ~sample:sample_a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty name accepted");
  (match Service.build svc ~name:"x" ~spec:"nosuchspec" ~domain:domain_a ~sample:sample_a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparseable spec accepted");
  (match Service.build svc ~name:"x" ~spec:"ewh" ~domain:domain_a ~sample:[||] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty sample accepted");
  (match Service.rebuild svc ~name:"ghost" ~sample:sample_a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rebuild of unknown entry accepted");
  check Alcotest.int "failed builds left no entries" 0 (List.length (Service.names svc))

(* ---------------- legacy layout ---------------- *)

(* A directory last served by the former hash-sharded server keeps its
   snapshots in shard-<i>/ subdirectories.  Opening it moves them back
   flat — including an interrupted write, which is then swept and
   reported — removes the emptied subdirectories, and serves the same
   bits. *)
let test_legacy_layout_opens_flat () =
  let flat = fresh_dir () in
  let svc, _ = Service.open_dir flat in
  build_two svc;
  let expected = Service.answer svc requests in
  let dir = fresh_dir () in
  let move name sub =
    let sub_dir = Filename.concat dir sub in
    if not (Sys.file_exists sub_dir) then Sys.mkdir sub_dir 0o755;
    Sys.rename (Snapshot.path ~dir:flat name) (Snapshot.path ~dir:sub_dir name)
  in
  move "orders/amount" "shard-0";
  move "users/age" "shard-3";
  write_file
    (Filename.concat (Filename.concat dir "shard-3") ("dead" ^ Snapshot.tmp_extension))
    "orphan";
  let reopened, skipped = Service.open_dir dir in
  check
    (Alcotest.list Alcotest.string)
    "only the orphaned temp file is reported"
    [ "dead" ^ Snapshot.tmp_extension ]
    (List.map fst skipped);
  check (Alcotest.list Alcotest.string) "every entry indexed" [ "orders/amount"; "users/age" ]
    (Service.names reopened);
  check (Alcotest.list Alcotest.string) "only flat snapshot files remain"
    (List.sort String.compare
       [ Snapshot.file_name "orders/amount"; Snapshot.file_name "users/age" ])
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  Array.iteri
    (fun i x ->
      check Alcotest.bool (Printf.sprintf "answer %d bit-identical" i) true
        (Int64.bits_of_float x = Int64.bits_of_float expected.(i)))
    (Service.answer reopened requests)

let () =
  Alcotest.run "catalog"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order and stats" `Quick test_lru_eviction;
          Alcotest.test_case "replace, remove, peek" `Quick test_lru_replace;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "atomic save / load round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "corrupt entries skipped and reported" `Quick
            test_snapshot_corrupt_skip;
          Alcotest.test_case "orphaned tmp files swept and reported" `Quick
            test_snapshot_orphan_tmp_sweep;
        ] );
      ( "service",
        [
          Alcotest.test_case "kill-and-reopen round trip" `Quick test_service_reopen;
          Alcotest.test_case "multi-kind entries survive reopen" `Quick test_multikind_reopen;
          Alcotest.test_case "batch answers agree across entry points" `Quick
            test_answer_entry_points_agree;
          Alcotest.test_case "reopen keeps the summaries it parsed" `Quick
            test_reopen_keeps_parsed_summaries;
          Alcotest.test_case "answer_into: identity and zero allocation" `Quick
            test_answer_into;
          Alcotest.test_case "insert budget staleness" `Quick test_staleness;
          Alcotest.test_case "invalidate, maintenance sync, drop" `Quick
            test_invalidate_and_sync;
          Alcotest.test_case "cache pressure: hits, misses, evictions" `Quick
            test_cache_pressure;
          Alcotest.test_case "build errors are Errors" `Quick test_build_errors;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "rebuild swap is atomic, reads never torn" `Quick
            test_adaptive_swap_never_tears;
          Alcotest.test_case "kill during rebuild recovers intact" `Quick
            test_adaptive_kill_during_rebuild_recovers;
          Alcotest.test_case "drain reaps the in-flight rebuild" `Quick
            test_adaptive_drain_reaps_pending;
          Alcotest.test_case "refresh keeps the summary on a non-finite cell" `Quick
            test_adaptive_refresh_rejects_nonfinite;
          Alcotest.test_case "background rebuild equals build: range" `Quick
            test_rebuild_equals_build_range;
          Alcotest.test_case "background rebuild equals build: rect" `Quick
            test_rebuild_equals_build_rect;
          Alcotest.test_case "background rebuild equals build: join" `Quick
            test_rebuild_equals_build_join;
        ] );
      ( "layout",
        [
          Alcotest.test_case "legacy shard-*/ directories open flat" `Quick
            test_legacy_layout_opens_flat;
        ] );
    ]

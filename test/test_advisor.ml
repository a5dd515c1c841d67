(* Tests for the advisor: targeted-selectivity workload synthesis, the
   sweep's determinism contract, Pareto/crossover correctness, the
   recommendation policy, and the shared JSON report encoder. *)

module Ds = Data.Dataset
module G = Data.Generate
module W = Advisor.Workloads
module Sw = Advisor.Sweep
module P = Advisor.Pareto
module R = Advisor.Recommend
module Rep = Advisor.Report
module E = Workload.Experiment

let checkf tol = Alcotest.(check (float tol))

(* --- workload synthesis: the tolerance contract --- *)

(* The qcheck property behind the acceptance criterion: for arbitrary
   seeds, dataset shapes and targets, a successful generation means every
   query's exact selectivity is positive, finite-bounded, and within the
   stated relative tolerance of the target.  Failures are allowed — they
   must be typed, which the degenerate-attribute tests below pin down. *)
let prop_generated_selectivity_within_tolerance =
  QCheck.Test.make ~name:"achieved selectivity within tolerance of target" ~count:40
    QCheck.(
      quad (int_range 0 2) (int_range 0 1000) (int_range 0 2) (int_range 0 4))
    (fun (fam, seed, place, ti) ->
      let family =
        match fam with
        | 0 -> G.Uniform_family
        | 1 -> G.Normal_family
        | _ -> G.Exponential_family
      in
      let ds = G.generate family ~bits:10 ~count:2000 ~seed:(Int64.of_int (seed + 1)) in
      let placement =
        match place with 0 -> W.Data_skew | 1 -> W.Uniform | _ -> W.Antimode
      in
      let target = List.nth [ 0.005; 0.01; 0.05; 0.1; 0.5 ] ti in
      match
        W.generate ds ~seed:(Int64.of_int seed) ~placement ~target ~count:15 ()
      with
      | Error f ->
        (* A typed failure must carry a diagnosis and a closest-achieved
           figure, never a half-built workload. *)
        String.length f.W.f_reason > 0 && f.W.f_best >= 0.0
      | Ok w ->
        Array.length w.W.queries = 15
        && Array.for_all
             (fun (q : Workload.Query.t) ->
               Float.is_finite q.Workload.Query.lo
               && Float.is_finite q.Workload.Query.hi
               && q.Workload.Query.lo <= q.Workload.Query.hi)
             w.W.queries
        && Array.for_all
             (fun sel ->
               sel > 0.0
               && Float.abs (sel -. target) <= (W.default_tolerance *. target) +. 1e-12)
             w.W.achieved)

let test_generate_deterministic () =
  let ds = G.generate G.Normal_family ~bits:10 ~count:3000 ~seed:11L in
  let gen () =
    match W.generate ds ~seed:42L ~placement:W.Data_skew ~target:0.05 ~count:25 () with
    | Ok w -> w
    | Error f -> Alcotest.failf "unexpected failure: %s" f.W.f_reason
  in
  let w1 = gen () and w2 = gen () in
  Alcotest.(check bool) "same queries" true
    (Array.for_all2
       (fun (a : Workload.Query.t) (b : Workload.Query.t) ->
         a.Workload.Query.lo = b.Workload.Query.lo
         && a.Workload.Query.hi = b.Workload.Query.hi)
       w1.W.queries w2.W.queries);
  checkf 0.0 "same mean achieved" w1.W.mean_achieved w2.W.mean_achieved

(* Grid cells are seeded per (placement, target), so the same cell is
   identical whatever else the grid contains. *)
let test_grid_cells_independent_of_grid_shape () =
  let ds = G.generate G.Exponential_family ~bits:10 ~count:3000 ~seed:5L in
  let cell targets =
    match W.grid ds ~seed:9L ~targets ~placements:[ W.Uniform ] ~count:10 () with
    | cells -> (
      match List.find_opt (fun (_, t, _) -> t = 0.1) cells with
      | Some (_, _, Ok w) -> w
      | Some (_, _, Error f) -> Alcotest.failf "cell failed: %s" f.W.f_reason
      | None -> Alcotest.fail "cell missing")
  in
  let narrow = cell [ 0.1 ] and wide = cell [ 0.01; 0.1; 0.5 ] in
  Alcotest.(check bool) "same cell queries" true
    (Array.for_all2
       (fun (a : Workload.Query.t) (b : Workload.Query.t) ->
         a.Workload.Query.lo = b.Workload.Query.lo
         && a.Workload.Query.hi = b.Workload.Query.hi)
       narrow.W.queries wide.W.queries)

(* --- degenerate attributes --- *)

let constant = Ds.create ~name:"const" ~bits:8 (Array.make 400 77)

let test_constant_column_low_target_fails_typed () =
  match W.generate constant ~seed:1L ~placement:W.Data_skew ~target:0.01 ~count:5 () with
  | Ok _ -> Alcotest.fail "a constant column cannot hit a 1% target"
  | Error f ->
    Alcotest.(check bool) "diagnosis mentions the constant column" true
      (let r = String.lowercase_ascii f.W.f_reason in
       (* substring search *)
       let rec has i =
         i + 8 <= String.length r && (String.sub r i 8 = "constant" || has (i + 1))
       in
       has 0);
    (* closest achievable on a constant column is all-or-nothing: 1.0 *)
    checkf 1e-12 "closest achieved is full selectivity" 1.0 f.W.f_best

let test_constant_column_full_target_succeeds () =
  match W.generate constant ~seed:1L ~placement:W.Uniform ~target:1.0 ~count:5 () with
  | Error f -> Alcotest.failf "target 1.0 should be achievable: %s" f.W.f_reason
  | Ok w ->
    Array.iter (fun sel -> checkf 1e-12 "every query covers everything" 1.0 sel) w.W.achieved

let three_values =
  (* 300 records over exactly three equally frequent values: achievable
     selectivities are multiples of 1/3. *)
  Ds.create ~name:"three" ~bits:8 (Array.init 300 (fun i -> (i mod 3) * 100))

let test_coarse_granularity_fails_typed () =
  match
    W.generate three_values ~seed:2L ~placement:W.Uniform ~target:0.05 ~count:5 ()
  with
  | Ok _ -> Alcotest.fail "5% is below the attribute's selectivity granularity"
  | Error f ->
    Alcotest.(check bool) "closest achieved reported" true (f.W.f_best > 0.0);
    Alcotest.(check bool) "reason is non-empty" true (String.length f.W.f_reason > 0)

let test_coarse_granularity_achievable_target_succeeds () =
  match
    W.generate three_values ~seed:2L ~placement:W.Uniform ~target:(1.0 /. 3.0) ~count:8 ()
  with
  | Error f -> Alcotest.failf "1/3 is exactly achievable: %s" f.W.f_reason
  | Ok w ->
    Array.iter (fun sel -> checkf 1e-9 "selectivity is exactly 1/3" (1.0 /. 3.0) sel)
      w.W.achieved

let test_grid_reports_failures_in_place () =
  let cells = W.grid constant ~seed:3L ~targets:[ 0.01; 1.0 ] ~count:4 () in
  let failed = List.filter (fun (_, _, r) -> Result.is_error r) cells in
  let ok = List.filter (fun (_, _, r) -> Result.is_ok r) cells in
  (* 2 placements x 2 targets: the 1% cells fail, the 100% cells pass. *)
  Alcotest.(check int) "failing cells" 2 (List.length failed);
  Alcotest.(check int) "passing cells" 2 (List.length ok)

(* --- placements --- *)

let test_placement_string_round_trip () =
  List.iter
    (fun p ->
      match W.placement_of_string (W.placement_name p) with
      | Ok p' -> Alcotest.(check bool) "round trip" true (p = p')
      | Error e -> Alcotest.fail e)
    [ W.Data_skew; W.Uniform; W.Antimode ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (W.placement_of_string "sideways"))

(* --- sweep: determinism across jobs --- *)

let sweep_dataset = G.generate G.Normal_family ~bits:12 ~count:5000 ~seed:21L

let small_suite =
  List.filter (fun (name, _) -> List.mem name [ "uniform"; "sampling"; "ewh" ])
    Sw.default_suite

let run_sweep ~jobs =
  let sample = E.sample_of sweep_dataset ~seed:7L ~n:500 in
  Sw.run ~jobs ~specs:small_suite ~targets:[ 0.01; 0.1 ] ~count:30 ~cells:256
    sweep_dataset ~seed:9L ~sample

let test_sweep_mres_bit_identical_across_jobs () =
  let s1 = run_sweep ~jobs:1 and s4 = run_sweep ~jobs:4 in
  Alcotest.(check int) "same cell count" (List.length s1.Sw.s_cells)
    (List.length s4.Sw.s_cells);
  List.iter2
    (fun (a : Sw.measurement) (b : Sw.measurement) ->
      Alcotest.(check string) "same spec" a.Sw.m_spec b.Sw.m_spec;
      Alcotest.(check bool) "bit-identical mre" true
        (Int64.equal
           (Int64.bits_of_float a.Sw.m_summary.Workload.Metrics.mre)
           (Int64.bits_of_float b.Sw.m_summary.Workload.Metrics.mre)))
    s1.Sw.s_cells s4.Sw.s_cells

(* The sweep scores the summary the catalog serves: each cell's MRE equals
   the MRE of a [Catalog.Service.range_summary] built from the same spec,
   sample and cell count, answering the same queries.  Sampling reduced to
   64 cells is EWH(64), so the raw estimator scores differently — checked
   too, so the equality cannot hold by accident. *)
let test_sweep_scores_served_summary () =
  let sample = E.sample_of sweep_dataset ~seed:7L ~n:500 in
  let cells = 64 and spec = "sampling" in
  let specs = List.filter (fun (name, _) -> name = spec) Sw.default_suite in
  let s =
    Sw.run ~specs ~targets:[ 0.01; 0.1 ] ~count:30 ~cells sweep_dataset ~seed:9L ~sample
  in
  Alcotest.(check int) "records its cell count" cells s.Sw.s_stored_cells;
  let domain = E.domain_of sweep_dataset in
  let summary =
    match Catalog.Service.range_summary ~cells ~spec ~domain sample with
    | Ok (Selest.Stored.Range t) -> t
    | Ok _ -> Alcotest.fail "range_summary returned another kind"
    | Error e -> Alcotest.fail e
  in
  let raw = Selest.Estimator.build Selest.Estimator.Sampling ~domain sample in
  let n = float_of_int (Ds.size sweep_dataset) in
  let mre_of sel (wl : W.t) =
    let pairs =
      Array.map
        (fun (q : Workload.Query.t) ->
          let a = q.Workload.Query.lo and b = q.Workload.Query.hi in
          (float_of_int (Ds.exact_count sweep_dataset ~lo:a ~hi:b), n *. sel ~a ~b))
        wl.W.queries
    in
    (Workload.Metrics.summarize pairs).Workload.Metrics.mre
  in
  Alcotest.(check int) "one measurement per workload cell"
    (List.length s.Sw.s_workloads) (List.length s.Sw.s_cells);
  let raw_differs =
    List.map2
      (fun (m : Sw.measurement) (_, _, wl) ->
        let swept = m.Sw.m_summary.Workload.Metrics.mre in
        let served = mre_of (Selest.Stored.selectivity summary) wl in
        if not (Float.equal swept served) then
          Alcotest.failf "cell %g: sweep mre %.17g <> served mre %.17g" m.Sw.m_target swept
            served;
        not (Float.equal swept (mre_of (Selest.Estimator.selectivity raw) wl)))
      s.Sw.s_cells s.Sw.s_workloads
  in
  Alcotest.(check bool) "raw estimator scores differently" true (List.mem true raw_differs)

let test_recommendation_deterministic_across_jobs () =
  let r1 = Result.get_ok (R.recommend (run_sweep ~jobs:1)) in
  let r4 = Result.get_ok (R.recommend (run_sweep ~jobs:4)) in
  Alcotest.(check string) "same spec at any jobs" r1.R.r_spec r4.R.r_spec;
  checkf 0.0 "same mean mre" r1.R.r_mean_mre r4.R.r_mean_mre;
  checkf 0.0 "same regret" r1.R.r_regret r4.R.r_regret

let test_vc_epsilon_decreases_with_n () =
  let e1 = Sw.vc_epsilon ~n:100 and e2 = Sw.vc_epsilon ~n:10000 in
  Alcotest.(check bool) "monotone in sample size" true (e2 < e1);
  (* At n = 2000 (the paper's sample size) the bound is ~3.5% absolute. *)
  checkf 1e-3 "paper sample size" 0.0353 (Sw.vc_epsilon ~n:2000)

(* --- Pareto: hand-built tables --- *)

let pt spec mre build ns =
  { P.p_spec = spec; p_label = spec; p_mre = mre; p_build_s = build; p_ns = ns }

let cheap_accurate = pt "a" 0.01 0.001 10.0
let dominated = pt "b" 0.02 0.002 20.0 (* worse everywhere than a *)
let fast_sloppy = pt "c" 0.05 0.0001 1.0 (* cheaper than a, less accurate *)

let test_dominates () =
  Alcotest.(check bool) "a dominates b" true (P.dominates cheap_accurate dominated);
  Alcotest.(check bool) "b does not dominate a" false (P.dominates dominated cheap_accurate);
  Alcotest.(check bool) "no self-domination" false (P.dominates cheap_accurate cheap_accurate);
  Alcotest.(check bool) "trade-off does not dominate" false
    (P.dominates cheap_accurate fast_sloppy)

let test_front_drops_only_dominated () =
  let front = P.front [ cheap_accurate; dominated; fast_sloppy ] in
  Alcotest.(check (list string)) "front members" [ "a"; "c" ]
    (List.map (fun p -> p.P.p_spec) front)

let test_front_keeps_duplicates () =
  let twin = { cheap_accurate with P.p_spec = "a2" } in
  Alcotest.(check int) "equal points both survive" 2
    (List.length (P.front [ cheap_accurate; twin ]))

(* The policy can never recommend a dominated spec, whatever the weights:
   candidates are restricted to the front before scoring. *)
let test_choose_never_returns_dominated () =
  List.iter
    (fun weights ->
      match R.choose ~weights [ cheap_accurate; dominated; fast_sloppy ] with
      | None -> Alcotest.fail "non-empty table must yield a choice"
      | Some p ->
        Alcotest.(check bool)
          (Printf.sprintf "dominated never chosen (acc=%g)" weights.R.w_accuracy)
          true (p.P.p_spec <> "b"))
    [
      R.default_weights;
      { R.w_accuracy = 1.0; w_build = 1.0; w_query = 1.0; w_tie_margin = 0.0 };
      { R.w_accuracy = 0.1; w_build = 5.0; w_query = 0.0; w_tie_margin = 0.5 };
    ]

let test_choose_tie_falls_to_earlier_candidate () =
  (* Same accuracy, wildly different costs: under accuracy-only weights
     the scores tie exactly, and the tie falls to suite order (the list
     is ordered cheapest-first by construction). *)
  let slow_twin = { cheap_accurate with P.p_spec = "z"; p_build_s = 9.0; p_ns = 9e6 } in
  match R.choose ~weights:R.default_weights [ cheap_accurate; slow_twin ] with
  | Some p -> Alcotest.(check string) "earlier candidate wins the tie" "a" p.P.p_spec
  | None -> Alcotest.fail "choice expected"

let test_choose_within_margin_prefers_cheaper_earlier () =
  (* b2 is 5% worse on mre — inside the 10% tie margin — and earlier in
     the list, so it wins the tie against the slightly better late spec. *)
  let near_best = pt "early" 0.0105 0.0001 1.0 in
  let best = pt "late" 0.01 0.01 100.0 in
  match R.choose ~weights:R.default_weights [ near_best; best ] with
  | Some p -> Alcotest.(check string) "margin resolves cheap-first" "early" p.P.p_spec
  | None -> Alcotest.fail "choice expected"

let test_weights_of_string () =
  (match R.weights_of_string "1,0.5,0.25" with
  | Ok w ->
    checkf 1e-12 "accuracy" 1.0 w.R.w_accuracy;
    checkf 1e-12 "build" 0.5 w.R.w_build;
    checkf 1e-12 "query" 0.25 w.R.w_query;
    checkf 1e-12 "default margin" R.default_weights.R.w_tie_margin w.R.w_tie_margin
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "zero accuracy rejected" true
    (Result.is_error (R.weights_of_string "0,1,1"));
  Alcotest.(check bool) "negative rejected" true
    (Result.is_error (R.weights_of_string "1,-1,0"));
  Alcotest.(check bool) "margin >= 1 rejected" true
    (Result.is_error (R.weights_of_string "1,0,0,1.5"));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (R.weights_of_string "fast,please"))

(* --- crossover matrix --- *)

let test_crossover_winner_is_cell_argmin () =
  let sweep = run_sweep ~jobs:1 in
  let bands = P.crossover sweep in
  Alcotest.(check int) "one band per achieved cell"
    (List.length sweep.Sw.s_workloads) (List.length bands);
  List.iter
    (fun (b : P.band) ->
      let best_listed =
        List.fold_left (fun acc (_, m) -> Float.min acc m) Float.infinity b.P.b_mres
      in
      checkf 0.0 "winner mre is the column minimum" best_listed b.P.b_winner_mre;
      Alcotest.(check bool) "winner appears in the column" true
        (List.mem_assoc b.P.b_winner b.P.b_mres))
    bands

(* --- report encoder: well-formed JSON --- *)

(* A minimal recursive-descent JSON validator — enough to prove the
   encoder emits structurally valid JSON without an external parser. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let fail = ref false in
  let expect c = if peek () = Some c then advance () else fail := true in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail := true
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail := true
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elements ()
        | Some ']' -> advance ()
        | _ -> fail := true
      in
      elements ()
  and string_lit () =
    expect '"';
    let closed = ref false in
    while (not !closed) && !pos < n && not !fail do
      (match s.[!pos] with
      | '"' -> closed := true
      | '\\' -> advance () (* skip the escaped char below *)
      | c when Char.code c < 0x20 -> fail := true
      | _ -> ());
      advance ()
    done;
    if not !closed then fail := true
  and keyword () =
    let ok w =
      !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    in
    if ok "true" then pos := !pos + 4
    else if ok "false" then pos := !pos + 5
    else if ok "null" then pos := !pos + 4
    else fail := true
  and number () =
    let numchar c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    let start = !pos in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    if !pos = start then fail := true
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_json_validator_sanity () =
  Alcotest.(check bool) "valid accepted" true
    (json_valid {|{"a": [1, 2.5e-3, null], "b": "x\"y", "c": {}}|});
  Alcotest.(check bool) "truncated rejected" false (json_valid {|{"a": [1, 2|});
  Alcotest.(check bool) "trailing junk rejected" false (json_valid "{}}")

let test_advise_report_is_valid_json () =
  let sweep = run_sweep ~jobs:1 in
  let r = Result.get_ok (R.recommend sweep) in
  let s = Rep.to_string (Rep.advise_report sweep r) in
  Alcotest.(check bool) "advise report parses" true (json_valid s)

let test_compare_report_is_valid_json () =
  let summary =
    Workload.Metrics.summarize [| (100.0, 103.0); (50.0, 49.0); (7.0, 7.0) |]
  in
  let s =
    Rep.to_string
      (Rep.compare_report ~dataset:{|weird "name"
with newline|} ~records:1000
         ~sample_size:100 ~fraction:0.01 ~count:3
         [ ("EWH(NS)", summary); ("Sampling", summary) ])
  in
  Alcotest.(check bool) "compare report parses despite hostile strings" true
    (json_valid s)

let test_report_non_finite_floats_encode_null () =
  let s = Rep.to_string (Rep.Obj [ ("nan", Rep.Float Float.nan); ("inf", Rep.Float Float.infinity) ]) in
  Alcotest.(check bool) "still valid json" true (json_valid s);
  (* both fields must have encoded as null *)
  let count_null =
    let rec go i acc =
      if i + 4 > String.length s then acc
      else go (i + 1) (if String.sub s i 4 = "null" then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "two nulls" 2 count_null

let () =
  Alcotest.run "advisor"
    [
      ( "workloads",
        [
          QCheck_alcotest.to_alcotest prop_generated_selectivity_within_tolerance;
          Alcotest.test_case "generation is deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "grid cells independent of grid shape" `Quick
            test_grid_cells_independent_of_grid_shape;
          Alcotest.test_case "placement names round-trip" `Quick
            test_placement_string_round_trip;
        ] );
      ( "degenerate attributes",
        [
          Alcotest.test_case "constant column, low target: typed failure" `Quick
            test_constant_column_low_target_fails_typed;
          Alcotest.test_case "constant column, target 1.0: succeeds" `Quick
            test_constant_column_full_target_succeeds;
          Alcotest.test_case "coarse granularity: typed failure" `Quick
            test_coarse_granularity_fails_typed;
          Alcotest.test_case "coarse granularity: achievable target succeeds" `Quick
            test_coarse_granularity_achievable_target_succeeds;
          Alcotest.test_case "grid reports failures in place" `Quick
            test_grid_reports_failures_in_place;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "MREs bit-identical at jobs 1 and 4" `Quick
            test_sweep_mres_bit_identical_across_jobs;
          Alcotest.test_case "recommendation deterministic across jobs" `Quick
            test_recommendation_deterministic_across_jobs;
          Alcotest.test_case "scores the served summary" `Quick
            test_sweep_scores_served_summary;
          Alcotest.test_case "VC bound shrinks with sample size" `Quick
            test_vc_epsilon_decreases_with_n;
        ] );
      ( "pareto & policy",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "front drops only dominated points" `Quick
            test_front_drops_only_dominated;
          Alcotest.test_case "front keeps duplicate coordinates" `Quick
            test_front_keeps_duplicates;
          Alcotest.test_case "dominated specs never recommended" `Quick
            test_choose_never_returns_dominated;
          Alcotest.test_case "exact ties fall to suite order" `Quick
            test_choose_tie_falls_to_earlier_candidate;
          Alcotest.test_case "margin ties fall to the earlier (cheaper) spec" `Quick
            test_choose_within_margin_prefers_cheaper_earlier;
          Alcotest.test_case "weights parser" `Quick test_weights_of_string;
          Alcotest.test_case "crossover winner is the cell argmin" `Quick
            test_crossover_winner_is_cell_argmin;
        ] );
      ( "report",
        [
          Alcotest.test_case "json validator sanity" `Quick test_json_validator_sanity;
          Alcotest.test_case "advise report is valid json" `Quick
            test_advise_report_is_valid_json;
          Alcotest.test_case "compare report is valid json" `Quick
            test_compare_report_is_valid_json;
          Alcotest.test_case "non-finite floats encode as null" `Quick
            test_report_non_finite_floats_encode_null;
        ] );
    ]

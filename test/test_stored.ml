(* Core.Stored serialization: property-based round-trip guarantees and
   totality on malformed input.

   The catalog persists summaries through to_string/of_string, so the
   round trip must reproduce selectivities bit-identically (weights print
   with 17 significant digits — exact for doubles) and of_string must
   return Error, never raise, on any corrupt file content. *)

module Stored = Selest.Stored

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 0.0)

(* Build a Stored.t with chosen weights by crafting its textual form —
   the type is abstract, and of_string is the only weight-level door. *)
let stored_text ~lo ~hi weights =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "selest-stored v1\n";
  Buffer.add_string buf (Printf.sprintf "domain %.17g %.17g\n" lo hi);
  Buffer.add_string buf (Printf.sprintf "cells %d\n" (List.length weights));
  List.iter (fun w -> Buffer.add_string buf (Printf.sprintf "%.17g\n" w)) weights;
  Buffer.contents buf

let stored_of_weights ~lo ~hi weights =
  match Stored.of_string (stored_text ~lo ~hi weights) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "stored_of_weights rejected valid input: %s" msg

(* Arbitrary domain, weights, and query endpoints (as domain fractions,
   possibly outside [0,1] to exercise clamping). *)
let gen_case =
  QCheck.Gen.(
    let* lo = float_bound_inclusive 1000.0 in
    let* width = map (fun w -> 0.5 +. (w *. 1000.0)) (float_bound_inclusive 1.0) in
    let* weights =
      list_size (int_range 1 64) (map Float.abs (float_bound_inclusive 0.25))
    in
    let* queries =
      list_size (int_range 1 20)
        (pair (float_range (-0.3) 1.3) (float_range (-0.3) 1.3))
    in
    return (lo -. 500.0, lo -. 500.0 +. width, weights, queries))

let arb_case = QCheck.make gen_case

(* Bit-identical selectivities after one (and two) serialization round
   trips, on queries anywhere relative to the domain. *)
let prop_round_trip =
  QCheck.Test.make ~count:300 ~name:"of_string (to_string t) bit-identical" arb_case
    (fun (lo, hi, weights, queries) ->
      let t = stored_of_weights ~lo ~hi weights in
      match Stored.of_string (Stored.to_string t) with
      | Error msg -> QCheck.Test.fail_reportf "round trip rejected: %s" msg
      | Ok t' ->
        Stored.cells t' = Stored.cells t
        && Stored.domain t' = Stored.domain t
        && Stored.to_string t' = Stored.to_string t
        && List.for_all
             (fun (fa, fb) ->
               let a = lo +. (fa *. (hi -. lo)) and b = lo +. (fb *. (hi -. lo)) in
               Float.equal (Stored.selectivity t ~a ~b) (Stored.selectivity t' ~a ~b))
             queries)

(* The same guarantee for summaries reduced from a real fitted estimator
   (the ANALYZE path the catalog actually exercises). *)
let prop_round_trip_of_sample =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 2 200 in
        let* sample = array_size (return n) (float_bound_inclusive 1024.0) in
        let* cells = int_range 1 64 in
        return (sample, cells))
  in
  QCheck.Test.make ~count:60 ~name:"of_sample summaries round-trip" arb
    (fun (sample, cells) ->
      let domain = (-0.5, 1024.5) in
      let t = Stored.of_sample ~cells ~spec:Selest.Estimator.Sampling ~domain sample in
      match Stored.of_string (Stored.to_string t) with
      | Error msg -> QCheck.Test.fail_reportf "round trip rejected: %s" msg
      | Ok t' ->
        List.for_all
          (fun (a, b) -> Float.equal (Stored.selectivity t ~a ~b) (Stored.selectivity t' ~a ~b))
          [ (0.0, 1024.0); (-0.5, 1024.5); (100.0, 101.0); (512.0, 300.0); (1000.0, 2000.0) ])

(* Rect summaries: round trips must reproduce rectangle selectivities
   bit-identically, including degenerate and inverted query bounds, and
   Multidim.Hist2d must agree exactly (its type IS Stored.rect). *)
let prop_rect_round_trip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 1 200 in
        let* points =
          array_size (return n)
            (pair (float_bound_inclusive 96.0) (float_bound_inclusive 60.0))
        in
        let* bins_x = int_range 1 16 in
        let* bins_y = int_range 1 16 in
        let* queries =
          list_size (int_range 1 12)
            (quad
               (float_range (-10.0) 110.0)
               (float_range (-10.0) 110.0)
               (float_range (-10.0) 70.0)
               (float_range (-10.0) 70.0))
        in
        return (points, bins_x, bins_y, queries))
  in
  QCheck.Test.make ~count:120 ~name:"rect_of_string (rect_to_string r) bit-identical" arb
    (fun (points, bins_x, bins_y, queries) ->
      let domain_x = (-0.5, 96.5) and domain_y = (-0.5, 60.5) in
      let r = Stored.rect_of_points ~domain_x ~domain_y ~bins_x ~bins_y points in
      match Stored.rect_of_string (Stored.rect_to_string r) with
      | Error msg -> QCheck.Test.fail_reportf "rect round trip rejected: %s" msg
      | Ok r' ->
        Stored.rect_bins r' = Stored.rect_bins r
        && Stored.rect_domains r' = Stored.rect_domains r
        && Stored.rect_to_string r' = Stored.rect_to_string r
        && List.for_all
             (fun (x_lo, x_hi, y_lo, y_hi) ->
               let s = Stored.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi in
               Float.equal s (Stored.rect_selectivity r' ~x_lo ~x_hi ~y_lo ~y_hi)
               && Float.equal s (Multidim.Hist2d.selectivity r' ~x_lo ~x_hi ~y_lo ~y_hi))
             queries)

(* Join summaries: round trips must reproduce the estimated size of all
   three predicates bit-identically, and Join.Ineqjoin.estimate must
   agree exactly (it is an alias of Stored.join_estimate). *)
let prop_join_round_trip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* nr = int_range 1 300 in
        let* ns = int_range 1 300 in
        let* sample_r = array_size (return nr) (float_bound_inclusive 512.0) in
        let* sample_s = array_size (return ns) (float_bound_inclusive 512.0) in
        let* buckets = int_range 1 32 in
        return (sample_r, sample_s, buckets))
  in
  QCheck.Test.make ~count:120 ~name:"join_of_string (join_to_string j) bit-identical" arb
    (fun (sample_r, sample_s, buckets) ->
      let domain = (-0.5, 512.5) in
      let j =
        Stored.join_of_samples ~domain ~buckets ~n_r:10_000 ~n_s:8_000 sample_r sample_s
      in
      match Stored.join_of_string (Stored.join_to_string j) with
      | Error msg -> QCheck.Test.fail_reportf "join round trip rejected: %s" msg
      | Ok j' ->
        Stored.join_domain j' = Stored.join_domain j
        && Stored.join_sizes j' = Stored.join_sizes j
        && Stored.join_buckets j' = Stored.join_buckets j
        && Stored.join_samples j' = Stored.join_samples j
        && Stored.join_to_string j' = Stored.join_to_string j
        && List.for_all
             (fun pred ->
               let e = Stored.join_estimate j ~pred in
               Float.equal e (Stored.join_estimate j' ~pred)
               && Float.equal e (Join.Ineqjoin.estimate j' ~pred))
             [ Stored.Join_eq; Stored.Join_lt; Stored.Join_le ])

(* of_string never raises: every malformed input maps to Error. *)
let malformed_cases =
  [
    ("empty", "");
    ("garbage", "not a summary at all");
    ("wrong magic", "selest-stored v9\ndomain 0 1\ncells 1\n0.5\n");
    ("missing domain", "selest-stored v1\ncells 1\n0.5\n");
    ("empty domain", "selest-stored v1\ndomain 5 5\ncells 1\n0.5\n");
    ("inverted domain", "selest-stored v1\ndomain 9 3\ncells 1\n0.5\n");
    ("non-float domain", "selest-stored v1\ndomain a b\ncells 1\n0.5\n");
    ("infinite upper domain", "selest-stored v1\ndomain 0 inf\ncells 1\n0.5\n");
    ("infinite lower domain", "selest-stored v1\ndomain -inf 10\ncells 1\n0.5\n");
    ("missing cells", "selest-stored v1\ndomain 0 1\n0.5\n");
    ("zero cells", "selest-stored v1\ndomain 0 1\ncells 0\n");
    ("negative cells", "selest-stored v1\ndomain 0 1\ncells -4\n0.5\n");
    ("cells mismatch", "selest-stored v1\ndomain 0 1\ncells 3\n0.5\n0.5\n");
    ("extra weight", "selest-stored v1\ndomain 0 1\ncells 1\n0.5\n0.5\n");
    ("garbage weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\nhello\n");
    ("negative weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\n-0.1\n");
    ("nan weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\nnan\n");
    ("infinite weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\ninf\n");
  ]

let test_malformed () =
  List.iter
    (fun (label, input) ->
      match Stored.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: malformed input accepted" label
      | exception e ->
        Alcotest.failf "%s: of_string raised %s" label (Printexc.to_string e))
    malformed_cases

(* The rect and join parsers share the totality contract, including
   cross-kind confusion: feeding one kind's text to another's parser
   must be a clean Error. *)
let test_malformed_rect_join () =
  let rect_text =
    Stored.rect_to_string
      (Stored.rect_of_points ~domain_x:(0.0, 4.0) ~domain_y:(0.0, 4.0) ~bins_x:2 ~bins_y:2
         [| (1.0, 1.0); (3.0, 3.0) |])
  in
  let join_text =
    Stored.join_to_string
      (Stored.join_of_samples ~domain:(0.0, 8.0) ~buckets:4 ~n_r:100 ~n_s:100
         [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0 |])
  in
  let expect_error parser label input =
    match parser input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed input accepted" label
    | exception e -> Alcotest.failf "%s: parser raised %s" label (Printexc.to_string e)
  in
  List.iter
    (expect_error Stored.rect_of_string "rect")
    [ ""; "garbage"; join_text; stored_text ~lo:0.0 ~hi:1.0 [ 0.5 ] ];
  List.iter
    (expect_error Stored.join_of_string "join")
    [ ""; "garbage"; rect_text; stored_text ~lo:0.0 ~hi:1.0 [ 0.5 ] ];
  (* Every truncation of well-formed text must be handled without
     raising (a benign cut, e.g. the trailing newline, may still parse). *)
  let sweep parser text =
    for len = 0 to String.length text - 1 do
      match parser (String.sub text 0 len) with
      | Ok _ | Error _ -> ()
      | exception e ->
        Alcotest.failf "truncated at %d: parser raised %s" len (Printexc.to_string e)
    done
  in
  sweep Stored.rect_of_string rect_text;
  sweep Stored.join_of_string join_text

(* to_string survives weights that only differ past float precision. *)
let test_tiny_weights () =
  let t = stored_of_weights ~lo:0.0 ~hi:1.0 [ 1e-300; 4.9e-324; 0.0; 0.25 ] in
  (match Stored.of_string (Stored.to_string t) with
  | Ok t' -> check Alcotest.string "text identical" (Stored.to_string t) (Stored.to_string t')
  | Error msg -> Alcotest.failf "denormal weights rejected: %s" msg);
  checkf "mass of last cell intact"
    (Stored.selectivity t ~a:0.75 ~b:1.0)
    0.25

(* Unbounded and huge query bounds clamp to the edge cells, in the
   scalar and the batch entry point alike.  A 4-cell uniform summary
   over [0,4]: the whole line holds all the mass, [2, +inf) half. *)
let test_unbounded_bounds () =
  let t = stored_of_weights ~lo:0.0 ~hi:4.0 [ 0.25; 0.25; 0.25; 0.25 ] in
  let cases =
    [
      (Float.neg_infinity, Float.infinity, 1.0);
      (-1e30, 1e30, 1.0);
      (-1e300, 1e300, 1.0);
      (2.0, Float.infinity, 0.5);
      (2.0, 1e300, 0.5);
      (Float.neg_infinity, 1.0, 0.25);
      (-1e300, 1.0, 0.25);
      (Float.neg_infinity, -1e300, 0.0);
      (1e300, Float.infinity, 0.0);
    ]
  in
  let n = List.length cases in
  let a = Array.of_list (List.map (fun (a, _, _) -> a) cases) in
  let b = Array.of_list (List.map (fun (_, b, _) -> b) cases) in
  let out = Array.make n Float.nan in
  Stored.selectivity_into t ~pos:0 ~len:n ~a ~b ~out;
  List.iteri
    (fun i (qa, qb, want) ->
      let label = Printf.sprintf "sel(%g, %g)" qa qb in
      checkf (label ^ " scalar") want (Stored.selectivity t ~a:qa ~b:qb);
      checkf (label ^ " batch") want out.(i))
    cases

(* ---------------- the range evaluator ---------------- *)

(* The per-cell walk the served range evaluator used before the
   prefix-sum table, kept as the test oracle: every overlapped cell
   contributes its weight times the overlapped fraction of its width. *)
let walk_oracle ~lo ~hi weights a b =
  if a > b then 0.0
  else begin
    let k = Array.length weights in
    let w = (hi -. lo) /. float_of_int k in
    let cell_index v =
      let c = Float.floor ((v -. lo) /. w) in
      if c >= float_of_int (k - 1) then k - 1 else if c > 0.0 then int_of_float c else 0
    in
    let acc = ref 0.0 in
    for i = cell_index a to cell_index b do
      let c_lo = lo +. (float_of_int i *. w) in
      let c_hi = c_lo +. w in
      let overlap = Float.min b c_hi -. Float.max a c_lo in
      if overlap > 0.0 then acc := !acc +. (weights.(i) *. overlap /. w)
    done;
    Float.max 0.0 (Float.min 1.0 !acc)
  end

(* Summaries at every resolution the serving stack uses and a few odd
   ones, with total mass near 1 as built summaries carry (some cells
   empty), and query bounds inside the domain, on and one ulp off cell
   edges, outside it, infinite, huge and NaN.  [slice] picks a
   [pos]/[len] window of the flattened query pairs for the batch entry
   point. *)
let gen_eval_case =
  QCheck.Gen.(
    let* cells = oneofl [ 1; 2; 7; 256; 4096 ] in
    let* lo = float_range (-1000.0) 1000.0 in
    let* width = float_range 0.5 2000.0 in
    let* raw =
      array_size (return cells)
        (frequency [ (1, return 0.0); (4, float_bound_inclusive 1.0) ])
    in
    let* mass = float_range 0.9 1.1 in
    let total = Array.fold_left ( +. ) 0.0 raw in
    let weights = Array.map (fun v -> if total > 0.0 then v *. mass /. total else v) raw in
    let hi = lo +. width in
    let w = width /. float_of_int cells in
    let bound =
      frequency
        [
          (4, map (fun f -> lo +. (f *. width)) (float_range (-0.3) 1.3));
          (2, map (fun j -> lo +. (float_of_int j *. w)) (int_range 0 cells));
          (* one ulp either side of an edge: where the cell index rounds *)
          ( 2,
            map
              (fun (j, step) -> step (lo +. (float_of_int j *. w)))
              (pair (int_range 0 cells) (oneofl [ Float.pred; Float.succ ])) );
          ( 1,
            oneofl
              [ lo; hi; Float.neg_infinity; Float.infinity; -1e300; 1e300; Float.nan ] );
        ]
    in
    let* bounds = list_size (int_range 2 16) bound in
    let* slice = pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0) in
    return (lo, hi, weights, Array.of_list bounds, slice))

let arb_eval_case =
  QCheck.make
    ~print:(fun (lo, hi, weights, bounds, _) ->
      Printf.sprintf "domain [%h, %h], %d cells, bounds [%s]" lo hi (Array.length weights)
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") bounds))))
    gen_eval_case

(* Within 1e-12, plus the rounding of the cell edges both evaluators
   compute as [lo + i w]: an edge is off by up to one ulp of the domain's
   magnitude, so each overlapped fraction is off by up to ulp / w (on a
   4096-cell grid over [942, 1118] that alone reaches 1.2e-12). *)
let prop_eval_matches_walk =
  QCheck.Test.make ~count:200 ~name:"evaluator agrees with the per-cell walk" arb_eval_case
    (fun (lo, hi, weights, bounds, _) ->
      let t = stored_of_weights ~lo ~hi (Array.to_list weights) in
      let w = (hi -. lo) /. float_of_int (Array.length weights) in
      let m = Float.max (Float.abs lo) (Float.abs hi) in
      let tol = 1e-12 +. (4.0 *. (Float.succ m -. m) /. w) in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b ->
              let s = Stored.selectivity t ~a ~b in
              let o = walk_oracle ~lo ~hi weights a b in
              if Float.abs (s -. o) <= tol then true
              else QCheck.Test.fail_reportf "sel(%h, %h) = %h, walk %h" a b s o)
            bounds)
        bounds)

let prop_eval_nan_inverted_zero =
  QCheck.Test.make ~count:200 ~name:"NaN and inverted bounds answer exactly 0" arb_eval_case
    (fun (lo, hi, weights, bounds, _) ->
      let t = stored_of_weights ~lo ~hi (Array.to_list weights) in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b ->
              (not (Float.is_nan a || Float.is_nan b || a > b))
              || Float.equal (Stored.selectivity t ~a ~b) 0.0)
            bounds)
        bounds)

(* [a', b'] inside [a, b] never answers more, exactly: no tolerance. *)
let prop_eval_monotone =
  QCheck.Test.make ~count:1000 ~name:"exactly monotone under range containment" arb_eval_case
    (fun (lo, hi, weights, bounds, _) ->
      let t = stored_of_weights ~lo ~hi (Array.to_list weights) in
      let xs =
        Array.of_list (List.filter (fun v -> not (Float.is_nan v)) (Array.to_list bounds))
      in
      Array.sort Float.compare xs;
      let n = Array.length xs in
      let sel =
        Array.init n (fun i ->
            Array.init n (fun j -> Stored.selectivity t ~a:xs.(i) ~b:xs.(j)))
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          (* [xs.(i), xs.(j)] against every range containing it *)
          for p = 0 to i do
            for q = j to n - 1 do
              if sel.(i).(j) > sel.(p).(q) then ok := false
            done
          done
        done
      done;
      !ok)

let prop_eval_batch_slices =
  QCheck.Test.make ~count:200 ~name:"selectivity_into slices equal scalar answers"
    arb_eval_case (fun (lo, hi, weights, bounds, (fp, fl)) ->
      let t = stored_of_weights ~lo ~hi (Array.to_list weights) in
      let m = Array.length bounds in
      let n = m * m in
      let a = Array.init n (fun i -> bounds.(i / m)) in
      let b = Array.init n (fun i -> bounds.(i mod m)) in
      let pos = int_of_float (fp *. float_of_int n) in
      let len = int_of_float (fl *. float_of_int (n - pos)) in
      let sentinel = -1.0 in
      let out = Array.make n sentinel in
      Stored.selectivity_into t ~pos ~len ~a ~b ~out;
      let ok = ref true in
      for i = 0 to n - 1 do
        let want =
          if i >= pos && i < pos + len then Stored.selectivity t ~a:a.(i) ~b:b.(i) else sentinel
        in
        if not (Float.equal out.(i) want) then ok := false
      done;
      !ok)

(* The serving engine and the advisor's sweep both evaluate through
   selectivity_into, so it must stay off the minor heap: a single box per
   query would show up as thousands of words. *)
let test_eval_batch_allocation () =
  let weights = List.init 256 (fun i -> float_of_int (i mod 7)) in
  let t = stored_of_weights ~lo:0.0 ~hi:1000.0 weights in
  let n = 128 in
  let a = Array.init n (fun i -> float_of_int (i * 7) -. 20.0) in
  let b = Array.init n (fun i -> a.(i) +. float_of_int (i * 3)) in
  let out = Array.make n 0.0 in
  Stored.selectivity_into t ~pos:0 ~len:n ~a ~b ~out;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    Stored.selectivity_into t ~pos:0 ~len:n ~a ~b ~out
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 0.0 then Alcotest.failf "%d batched queries allocated %.0f minor words" (100 * n) dw

(* --- served summaries of every estimator spec --- *)

module Est = Selest.Estimator
module Xo = Prng.Xoshiro256pp

let spec_domain = (0.0, 1000.0)

(* Step-density mixture: dense [0,300], sparse (300,600], medium
   (600,1000], so the hybrid estimator finds change points and the
   boundary policies have non-trivial strips. *)
let spec_sample seed n =
  let rng = Xo.create seed in
  Array.init n (fun _ ->
      let u = Xo.float_range rng 0.0 1.0 in
      if u < 0.6 then Xo.float_range rng 0.0 300.0
      else if u < 0.7 then Xo.float_range rng 300.0 600.0
      else Xo.float_range rng 600.0 1000.0)

let served_specs =
  Est.
    [
      Sampling;
      Uniform_assumption;
      Equi_width (Fixed_bins 25);
      Equi_width Normal_scale_bins;
      Equi_depth { bins = 25 };
      Max_diff { bins = 25 };
      Ash { bins = Fixed_bins 25; shifts = 10 };
      Ash { bins = Normal_scale_bins; shifts = 10 };
      Kernel
        {
          kernel = Kernels.Kernel.Epanechnikov;
          boundary = Kde.Estimator.Reflection;
          bandwidth = Fixed_bandwidth 20.0;
        };
      Kernel
        {
          kernel = Kernels.Kernel.Biweight;
          boundary = Kde.Estimator.Boundary_kernels;
          bandwidth = Fixed_bandwidth 15.0;
        };
      kernel_defaults;
      hybrid_defaults;
      Hybrid_spec { bandwidth = Normal_scale_bandwidth; min_bin_count = 50; max_change_points = 8 };
      Frequency_polygon (Fixed_bins 25);
      V_optimal { bins = 25 };
      Wavelet_spec { coefficients = 25 };
    ]

(* What the catalog serves and the advisor scores for a spec: the fitted
   estimator reduced by of_estimator.  Every spec must reduce to finite
   cells, and the reduced summary must answer a batch (ranges inside,
   straddling and outside the domain, inverted ones included) exactly
   as it answers one query at a time. *)
let prop_spec_batch_identity spec =
  let est = Est.build spec ~domain:spec_domain (spec_sample 7L 800) in
  let t = Stored.of_estimator ~domain:spec_domain est in
  let bound = QCheck.float_range (-100.0) 1100.0 in
  QCheck.Test.make
    ~name:(Printf.sprintf "batch bit-identical: %s" (Est.spec_name spec))
    ~count:50
    QCheck.(list_of_size Gen.(1 -- 64) (pair bound bound))
    (fun qs ->
      let a = Array.of_list (List.map fst qs) and b = Array.of_list (List.map snd qs) in
      let n = Array.length a in
      let out = Array.make n nan in
      Stored.selectivity_into t ~pos:0 ~len:n ~a ~b ~out;
      let ok = ref true in
      for i = 0 to n - 1 do
        let s = Stored.selectivity t ~a:a.(i) ~b:b.(i) in
        if not (Float.equal out.(i) s && s >= 0.0 && s <= 1.0) then ok := false
      done;
      !ok)

let test_empty_and_short_batches () =
  let t = Stored.of_sample ~domain:spec_domain (spec_sample 13L 300) in
  let out = [| 42.0 |] in
  Stored.selectivity_into t ~pos:0 ~len:0 ~a:[||] ~b:[||] ~out;
  checkf "empty batch leaves out untouched" 42.0 out.(0);
  Stored.selectivity_into t ~pos:0 ~len:1 ~a:[| 100.0 |] ~b:[| 400.0 |] ~out;
  checkf "single-query batch" (Stored.selectivity t ~a:100.0 ~b:400.0) out.(0)

let test_selectivity_into_validation () =
  let t = Stored.of_sample ~domain:spec_domain (spec_sample 17L 100) in
  let check_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  check_invalid "negative len" (fun () ->
      Stored.selectivity_into t ~pos:0 ~len:(-1) ~a:[||] ~b:[||] ~out:[||]);
  check_invalid "negative pos" (fun () ->
      Stored.selectivity_into t ~pos:(-1) ~len:1 ~a:[| 0.0 |] ~b:[| 1.0 |] ~out:[| 0.0 |]);
  check_invalid "short a" (fun () ->
      Stored.selectivity_into t ~pos:0 ~len:2 ~a:[| 0.0 |] ~b:[| 0.0; 1.0 |] ~out:[| 0.0; 0.0 |]);
  check_invalid "short b" (fun () ->
      Stored.selectivity_into t ~pos:1 ~len:1 ~a:[| 0.0; 1.0 |] ~b:[| 0.0 |] ~out:[| 0.0; 0.0 |]);
  check_invalid "short out" (fun () ->
      Stored.selectivity_into t ~pos:0 ~len:2 ~a:[| 0.0; 1.0 |] ~b:[| 0.0; 1.0 |] ~out:[| 0.0 |])

(* Cell probes that are NaN or infinite are refused at build time, with
   the cell named, instead of producing a summary whose own snapshot
   would not load. *)
let test_nonfinite_cells () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let expect_invalid label ~cell build =
    match build () with
    | () -> Alcotest.failf "%s: non-finite cell accepted" label
    | exception Invalid_argument msg ->
      if not (contains msg cell) then Alcotest.failf "%s: %S does not name %s" label msg cell
  in
  List.iter
    (fun bad ->
      let label = Printf.sprintf "of_fn %g" bad in
      expect_invalid label ~cell:"cell 1" (fun () ->
          ignore
            (Stored.of_fn ~cells:4 ~domain:(0.0, 4.0) (fun ~a ~b:_ ->
                 if a = 1.0 then bad else 0.25)));
      let label = Printf.sprintf "rect_of_fn %g" bad in
      expect_invalid label ~cell:"cell (1, 0)" (fun () ->
          ignore
            (Stored.rect_of_fn ~domain_x:(0.0, 2.0) ~domain_y:(0.0, 2.0) ~bins_x:2 ~bins_y:2
               (fun ~x_lo ~x_hi:_ ~y_lo ~y_hi:_ ->
                 if x_lo = 1.0 && y_lo = 0.0 then bad else 0.25))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* Finite probes still build, negative ones clamped to 0 as before. *)
  let t =
    Stored.of_fn ~cells:2 ~domain:(0.0, 2.0) (fun ~a ~b:_ -> if a = 0.0 then -0.5 else 0.5)
  in
  checkf "negative probe clamps to 0" 0.0 (Stored.selectivity t ~a:0.0 ~b:1.0);
  checkf "finite probe kept" 0.5 (Stored.selectivity t ~a:0.0 ~b:2.0)

(* ---------------- join answers computed at build ---------------- *)

(* The bucket-pair sweeps join answers used to re-run per request, kept
   as the test oracle over the histograms read back from the summary's
   text form (which prints every value exactly). *)
let join_histograms j =
  let lines = Array.of_list (String.split_on_char '\n' (Stored.join_to_string j)) in
  let section name =
    let rec find i =
      match String.split_on_char ' ' lines.(i) with
      | [ n; c ] when n = name ->
        Array.init (int_of_string c) (fun k -> float_of_string lines.(i + 1 + k))
      | _ -> find (i + 1)
    in
    find 0
  in
  (section "bounds_r", section "mass_r", section "bounds_s", section "mass_s")

let prob_lt ~a1 ~b1 ~a2 ~b2 =
  if b1 <= a2 then 1.0
  else if b2 <= a1 then 0.0
  else begin
    let clamp v = Float.max a2 (Float.min b2 v) in
    let c1 = clamp a1 and c2 = clamp b1 in
    let ramp =
      (((c2 -. a1) *. (c2 -. a1)) -. ((c1 -. a1) *. (c1 -. a1))) /. (2.0 *. (b1 -. a1))
    in
    (ramp +. (b2 -. c2)) /. (b2 -. a2)
  end

let join_sweep j ~pred =
  let bounds_r, mass_r, bounds_s, mass_s = join_histograms j in
  let n_r, n_s = Stored.join_sizes j in
  let kr = Array.length mass_r and ks = Array.length mass_s in
  let eq () =
    let acc = ref 0.0 in
    for i = 0 to kr - 1 do
      let a1 = bounds_r.(i) and b1 = bounds_r.(i + 1) in
      let dr = mass_r.(i) /. (b1 -. a1) in
      if dr > 0.0 then
        for k = 0 to ks - 1 do
          let a2 = bounds_s.(k) and b2 = bounds_s.(k + 1) in
          let overlap = Float.min b1 b2 -. Float.max a1 a2 in
          if overlap > 0.0 then acc := !acc +. (dr *. (mass_s.(k) /. (b2 -. a2)) *. overlap)
        done
    done;
    float_of_int n_r *. float_of_int n_s *. !acc
  in
  let lt () =
    let acc = ref 0.0 in
    for i = 0 to kr - 1 do
      let a1 = bounds_r.(i) and b1 = bounds_r.(i + 1) in
      let mr = mass_r.(i) in
      if mr > 0.0 then
        for k = 0 to ks - 1 do
          let a2 = bounds_s.(k) and b2 = bounds_s.(k + 1) in
          let ms = mass_s.(k) in
          if ms > 0.0 then acc := !acc +. (mr *. ms *. prob_lt ~a1 ~b1 ~a2 ~b2)
        done
    done;
    float_of_int n_r *. float_of_int n_s *. !acc
  in
  match pred with
  | Stored.Join_eq -> eq ()
  | Stored.Join_lt -> lt ()
  | Stored.Join_le -> lt () +. eq ()

let prop_join_answers_stored =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* nr = int_range 1 300 in
        let* ns = int_range 1 300 in
        let* sample_r = array_size (return nr) (float_bound_inclusive 512.0) in
        let* sample_s = array_size (return ns) (float_bound_inclusive 512.0) in
        let* buckets = int_range 1 64 in
        return (sample_r, sample_s, buckets))
  in
  QCheck.Test.make ~count:120 ~name:"stored join answers equal a fresh sweep" arb
    (fun (sample_r, sample_s, buckets) ->
      let j =
        Stored.join_of_samples ~domain:(-0.5, 512.5) ~buckets ~n_r:10_000 ~n_s:8_000 sample_r
          sample_s
      in
      match Stored.join_of_string (Stored.join_to_string j) with
      | Error msg -> QCheck.Test.fail_reportf "join round trip rejected: %s" msg
      | Ok j' ->
        List.for_all
          (fun j ->
            List.for_all
              (fun pred -> Float.equal (Stored.join_estimate j ~pred) (join_sweep j ~pred))
              [ Stored.Join_eq; Stored.Join_lt; Stored.Join_le ])
          [ j; j' ])

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_round_trip; prop_round_trip_of_sample; prop_rect_round_trip; prop_join_round_trip ]
  in
  Alcotest.run "stored"
    [
      ("round-trip", qsuite);
      ( "malformed",
        [
          Alcotest.test_case "errors, never raises" `Quick test_malformed;
          Alcotest.test_case "rect/join parsers total" `Quick test_malformed_rect_join;
          Alcotest.test_case "denormal weights" `Quick test_tiny_weights;
        ] );
      ( "bounds",
        [ Alcotest.test_case "unbounded and huge query bounds" `Quick test_unbounded_bounds ] );
      ( "evaluator",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eval_matches_walk;
            prop_eval_nan_inverted_zero;
            prop_eval_monotone;
            prop_eval_batch_slices;
          ]
        @ [
            Alcotest.test_case "selectivity_into allocates no minor words" `Quick
              test_eval_batch_allocation;
          ] );
      ( "identity",
        List.map
          (fun spec -> QCheck_alcotest.to_alcotest (prop_spec_batch_identity spec))
          served_specs );
      ( "edges",
        [
          Alcotest.test_case "empty and short batches" `Quick test_empty_and_short_batches;
          Alcotest.test_case "argument validation" `Quick test_selectivity_into_validation;
        ] );
      ( "build",
        Alcotest.test_case "non-finite cells refused" `Quick test_nonfinite_cells
        :: List.map QCheck_alcotest.to_alcotest [ prop_join_answers_stored ] );
    ]

type t = {
  lo : float;
  hi : float;
  w : float; (* cell width *)
  weights : float array; (* per-cell selectivity mass *)
  cdf : float array;
      (* cdf.(i) = weights.(0) + ... + weights.(i-1), length cells + 1;
         derived by [make], never persisted *)
}

(* The one constructor [of_fn] and [of_string] both go through: the
   prefix-sum table is built here, so a loaded snapshot and a fresh build
   carry the same table. *)
let make ~lo ~hi weights =
  let k = Array.length weights in
  let cdf = Array.make (k + 1) 0.0 in
  for i = 0 to k - 1 do
    cdf.(i + 1) <- cdf.(i) +. weights.(i)
  done;
  { lo; hi; w = (hi -. lo) /. float_of_int k; weights; cdf }

(* [who] keeps validation messages named after the entry point the
   caller actually used. *)
let of_fn_named who ?(cells = 256) ~domain:(lo, hi) f =
  if cells <= 0 then invalid_arg (who ^ ": cells must be positive");
  if lo >= hi then invalid_arg (who ^ ": empty domain");
  let w = (hi -. lo) /. float_of_int cells in
  let weights =
    Array.init cells (fun i ->
        let a = lo +. (float_of_int i *. w) in
        let v = f ~a ~b:(a +. w) in
        if not (Float.is_finite v) then
          invalid_arg (Printf.sprintf "%s: cell %d value %g is not finite" who i v);
        Float.max 0.0 v)
  in
  make ~lo ~hi weights

let of_fn ?cells ~domain f = of_fn_named "Stored.of_fn" ?cells ~domain f

let of_estimator ?cells ~domain est =
  of_fn_named "Stored.of_estimator" ?cells ~domain (fun ~a ~b ->
      Estimator.selectivity est ~a ~b)

let of_sample ?cells ?(spec = Estimator.kernel_defaults) ~domain sample =
  of_estimator ?cells ~domain (Estimator.build spec ~domain sample)

let cells t = Array.length t.weights
let domain t = (t.lo, t.hi)

(* F(v), the mass below [v] under the uniform-within-cell assumption:
   the prefix sum of the cells below [v]'s cell plus the linearly
   interpolated share of that cell, kept inside [cdf.(i), cdf.(i+1)] so
   rounding can never make F decrease.  Infinite and out-of-domain bounds
   take the first two branches; inside the domain the cell quotient is
   finite and non-negative, so truncation is its floor (rounding can
   still land it on [k]).  Every operand is finite, so the clamps are
   plain compares. *)
let[@inline] mass_below t v =
  let k = Array.length t.weights in
  if v <= t.lo then 0.0
  else if v >= t.hi then Array.unsafe_get t.cdf k
  else begin
    let c = int_of_float ((v -. t.lo) /. t.w) in
    let i = if c >= k then k - 1 else c in
    let d = v -. (t.lo +. (float_of_int i *. t.w)) in
    let f =
      Array.unsafe_get t.cdf i
      +. (Array.unsafe_get t.weights i *. (if d > 0.0 then d else 0.0) /. t.w)
    in
    let top = Array.unsafe_get t.cdf (i + 1) in
    if f > top then top else f
  end

(* The one range evaluator: F(b) - F(a), clamped to [0, 1].  [not (a <=
   b)] also catches NaN bounds.  Monotone F makes the difference exactly
   monotone under range containment. *)
let[@inline] range t a b =
  if not (a <= b) then 0.0
  else begin
    let s = mass_below t b -. mass_below t a in
    if s > 1.0 then 1.0 else if s > 0.0 then s else 0.0
  end

let selectivity t ~a ~b = range t a b

(* Batch variant of [selectivity]: the same evaluator, one query per
   output slot, nothing allocated. *)
let selectivity_into t ~pos ~len ~a ~b ~out =
  if pos < 0 || len < 0 then invalid_arg "Stored.selectivity_into: negative range";
  if pos + len > Array.length a || pos + len > Array.length b || pos + len > Array.length out
  then invalid_arg "Stored.selectivity_into: query arrays shorter than pos + len";
  for qi = pos to pos + len - 1 do
    Array.unsafe_set out qi (range t (Array.unsafe_get a qi) (Array.unsafe_get b qi))
  done

let to_string t =
  let buf = Buffer.create (16 * Array.length t.weights) in
  Buffer.add_string buf "selest-stored v1\n";
  Buffer.add_string buf (Printf.sprintf "domain %.17g %.17g\n" t.lo t.hi);
  Buffer.add_string buf (Printf.sprintf "cells %d\n" (Array.length t.weights));
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) t.weights;
  Buffer.contents buf

let magic_range = "selest-stored v1"

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | magic :: domain_line :: cells_line :: rest when String.trim magic = magic_range -> (
    let parse_domain () =
      match String.split_on_char ' ' (String.trim domain_line) with
      | [ "domain"; a; b ] -> (
        match (float_of_string_opt a, float_of_string_opt b) with
        | Some lo, Some hi when Float.is_finite lo && Float.is_finite hi && lo < hi ->
          Ok (lo, hi)
        | _ -> Error "Stored.of_string: malformed domain bounds")
      | _ -> Error "Stored.of_string: missing domain line"
    in
    let parse_cells () =
      match String.split_on_char ' ' (String.trim cells_line) with
      | [ "cells"; n ] -> (
        match int_of_string_opt n with
        | Some k when k > 0 -> Ok k
        | _ -> Error "Stored.of_string: malformed cell count")
      | _ -> Error "Stored.of_string: missing cells line"
    in
    match (parse_domain (), parse_cells ()) with
    | Error e, _ | _, Error e -> Error e
    | Ok (lo, hi), Ok k -> (
      let values =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            if line = "" then None else Some (float_of_string_opt line))
          rest
      in
      if List.exists (fun v -> v = None) values then
        Error "Stored.of_string: malformed weight"
      else begin
        let weights = Array.of_list (List.filter_map Fun.id values) in
        if Array.length weights <> k then
          Error
            (Printf.sprintf "Stored.of_string: expected %d weights, found %d" k
               (Array.length weights))
        else if Array.exists (fun v -> v < 0.0 || not (Float.is_finite v)) weights then
          Error "Stored.of_string: weights must be non-negative and finite"
        else Ok (make ~lo ~hi weights)
      end))
  | _ -> Error "Stored.of_string: missing header"

(* ---------------- rectangle (2-D grid) summaries ---------------- *)

type rect = {
  rx_lo : float;
  ry_lo : float;
  rwx : float; (* cell width along x *)
  rwy : float;
  rbins_x : int;
  rbins_y : int;
  rcounts : float array; (* row-major: cell (i, j) at [j * bins_x + i] *)
  rtotal : float;
}

(* Closed-rectangle-on-the-integer-grid canonicalization: the one
   semantics every 2-D estimator agrees on.  A query [x_lo, x_hi] x
   [y_lo, y_hi] means the set of integer points it contains; the
   continuous rectangle actually evaluated is the union of their unit
   cells, [ceil x_lo - 0.5, floor x_hi + 0.5] per axis.  Queries already
   phrased on half-integer cell edges (the workload generator's form) map
   to themselves, so this is invisible to them; a degenerate [a, a] query
   becomes the unit cell around [a], matching the inclusive exact count.
   [None] when no integer point lies inside (including inverted and NaN
   bounds). *)
let canonical_rect ~x_lo ~x_hi ~y_lo ~y_hi =
  if
    Float.is_nan x_lo || Float.is_nan x_hi || Float.is_nan y_lo || Float.is_nan y_hi
  then None
  else begin
    let ix_lo = Float.ceil x_lo and ix_hi = Float.floor x_hi in
    let iy_lo = Float.ceil y_lo and iy_hi = Float.floor y_hi in
    if ix_lo > ix_hi || iy_lo > iy_hi then None
    else Some (ix_lo -. 0.5, ix_hi +. 0.5, iy_lo -. 0.5, iy_hi +. 0.5)
  end

let rect_of_counts_exn who ~domain_x:(x_lo, x_hi) ~domain_y:(y_lo, y_hi) ~bins_x ~bins_y
    ~counts ~total =
  if x_lo >= x_hi || y_lo >= y_hi then invalid_arg (who ^ ": empty domain");
  if bins_x <= 0 || bins_y <= 0 then invalid_arg (who ^ ": bins must be positive");
  if Array.length counts <> bins_x * bins_y then
    invalid_arg (who ^ ": counts length must be bins_x * bins_y");
  if total <= 0.0 || not (Float.is_finite total) then
    invalid_arg (who ^ ": total must be positive and finite");
  {
    rx_lo = x_lo;
    ry_lo = y_lo;
    rwx = (x_hi -. x_lo) /. float_of_int bins_x;
    rwy = (y_hi -. y_lo) /. float_of_int bins_y;
    rbins_x = bins_x;
    rbins_y = bins_y;
    rcounts = counts;
    rtotal = total;
  }

let rect_of_points ~domain_x:(x_lo, x_hi) ~domain_y:(y_lo, y_hi) ~bins_x ~bins_y points =
  if x_lo >= x_hi || y_lo >= y_hi then invalid_arg "Stored.rect_of_points: empty domain";
  if bins_x <= 0 || bins_y <= 0 then
    invalid_arg "Stored.rect_of_points: bins must be positive";
  if Array.length points = 0 then invalid_arg "Stored.rect_of_points: empty sample";
  let wx = (x_hi -. x_lo) /. float_of_int bins_x in
  let wy = (y_hi -. y_lo) /. float_of_int bins_y in
  let counts = Array.make (bins_x * bins_y) 0.0 in
  (* Clamp in float space before the int conversion: a point far outside
     the domain (or infinite) must land in an edge cell, not in
     [int_of_float]'s unspecified result. *)
  let cell_index lo w bins v =
    int_of_float
      (Float.max 0.0 (Float.min (float_of_int (bins - 1)) (Float.floor ((v -. lo) /. w))))
  in
  Array.iter
    (fun (x, y) ->
      let i = cell_index x_lo wx bins_x x in
      let j = cell_index y_lo wy bins_y y in
      counts.((j * bins_x) + i) <- counts.((j * bins_x) + i) +. 1.0)
    points;
  {
    rx_lo = x_lo;
    ry_lo = y_lo;
    rwx = wx;
    rwy = wy;
    rbins_x = bins_x;
    rbins_y = bins_y;
    rcounts = counts;
    rtotal = float_of_int (Array.length points);
  }

let rect_of_fn ~domain_x:(x_lo, x_hi) ~domain_y:(y_lo, y_hi) ~bins_x ~bins_y f =
  if x_lo >= x_hi || y_lo >= y_hi then invalid_arg "Stored.rect_of_fn: empty domain";
  if bins_x <= 0 || bins_y <= 0 then invalid_arg "Stored.rect_of_fn: bins must be positive";
  let wx = (x_hi -. x_lo) /. float_of_int bins_x in
  let wy = (y_hi -. y_lo) /. float_of_int bins_y in
  let counts =
    Array.init (bins_x * bins_y) (fun k ->
        let i = k mod bins_x and j = k / bins_x in
        let cx_lo = x_lo +. (float_of_int i *. wx) in
        let cy_lo = y_lo +. (float_of_int j *. wy) in
        let v = f ~x_lo:cx_lo ~x_hi:(cx_lo +. wx) ~y_lo:cy_lo ~y_hi:(cy_lo +. wy) in
        if not (Float.is_finite v) then
          invalid_arg
            (Printf.sprintf "Stored.rect_of_fn: cell (%d, %d) value %g is not finite" i j v);
        Float.max 0.0 v)
  in
  {
    rx_lo = x_lo;
    ry_lo = y_lo;
    rwx = wx;
    rwy = wy;
    rbins_x = bins_x;
    rbins_y = bins_y;
    rcounts = counts;
    rtotal = 1.0;
  }

let rect_bins r = (r.rbins_x, r.rbins_y)

let rect_domains r =
  ( (r.rx_lo, r.rx_lo +. (r.rwx *. float_of_int r.rbins_x)),
    (r.ry_lo, r.ry_lo +. (r.rwy *. float_of_int r.rbins_y)) )

(* Overlap of [lo, hi] with cell [k] along an axis, as a fraction of the
   cell width (the Hist2d arithmetic, verbatim — Multidim.Hist2d delegates
   here, which is what makes served rectangles bit-identical to direct
   library calls). *)
let overlap_fraction ~origin ~w k lo hi =
  let c_lo = origin +. (float_of_int k *. w) in
  let c_hi = c_lo +. w in
  let o = Float.min hi c_hi -. Float.max lo c_lo in
  if o <= 0.0 then 0.0 else o /. w

let rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi =
  match canonical_rect ~x_lo ~x_hi ~y_lo ~y_hi with
  | None -> 0.0
  | Some (x_lo, x_hi, y_lo, y_hi) ->
    (* Cell index bounds, clamped in float space so infinite canonical
       bounds (e.g. an unbounded query) hit the edge cells rather than
       [int_of_float]'s unspecified result. *)
    let clamp_index ~origin ~w ~bins v =
      int_of_float
        (Float.max 0.0
           (Float.min (float_of_int (bins - 1)) (Float.floor ((v -. origin) /. w))))
    in
    let i0 = clamp_index ~origin:r.rx_lo ~w:r.rwx ~bins:r.rbins_x x_lo in
    let i1 = clamp_index ~origin:r.rx_lo ~w:r.rwx ~bins:r.rbins_x x_hi in
    let j0 = clamp_index ~origin:r.ry_lo ~w:r.rwy ~bins:r.rbins_y y_lo in
    let j1 = clamp_index ~origin:r.ry_lo ~w:r.rwy ~bins:r.rbins_y y_hi in
    let acc = ref 0.0 in
    for j = j0 to j1 do
      let fy = overlap_fraction ~origin:r.ry_lo ~w:r.rwy j y_lo y_hi in
      if fy > 0.0 then
        for i = i0 to i1 do
          let fx = overlap_fraction ~origin:r.rx_lo ~w:r.rwx i x_lo x_hi in
          if fx > 0.0 then acc := !acc +. (r.rcounts.((j * r.rbins_x) + i) *. fx *. fy)
        done
    done;
    Float.max 0.0 (Float.min 1.0 (!acc /. r.rtotal))

let rect_density r x y =
  let i = Float.floor ((x -. r.rx_lo) /. r.rwx) in
  let j = Float.floor ((y -. r.ry_lo) /. r.rwy) in
  if
    (not (i >= 0.0 && i <= float_of_int (r.rbins_x - 1)))
    || not (j >= 0.0 && j <= float_of_int (r.rbins_y - 1))
  then 0.0
  else
    r.rcounts.((int_of_float j * r.rbins_x) + int_of_float i)
    /. (r.rtotal *. r.rwx *. r.rwy)

let magic_rect = "selest-stored-rect v1"

let rect_to_string r =
  let (x_lo, x_hi), (y_lo, y_hi) = rect_domains r in
  let buf = Buffer.create (16 * Array.length r.rcounts) in
  Buffer.add_string buf (magic_rect ^ "\n");
  Buffer.add_string buf (Printf.sprintf "domain_x %.17g %.17g\n" x_lo x_hi);
  Buffer.add_string buf (Printf.sprintf "domain_y %.17g %.17g\n" y_lo y_hi);
  Buffer.add_string buf (Printf.sprintf "bins %d %d\n" r.rbins_x r.rbins_y);
  Buffer.add_string buf (Printf.sprintf "total %.17g\n" r.rtotal);
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) r.rcounts;
  Buffer.contents buf

(* Shared line-level helpers for the rect/join parsers: every parse is
   total — malformed input maps to [Error], never an exception. *)
let parse_float_pair who ~key line =
  match String.split_on_char ' ' (String.trim line) with
  | [ k; a; b ] when k = key -> (
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some x, Some y -> Ok (x, y)
    | _ -> Error (Printf.sprintf "%s: malformed %s line" who key))
  | _ -> Error (Printf.sprintf "%s: missing %s line" who key)

let parse_floats who rest =
  let values =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" then None else Some (float_of_string_opt line))
      rest
  in
  if List.exists (fun v -> v = None) values then
    Error (Printf.sprintf "%s: malformed value" who)
  else Ok (Array.of_list (List.filter_map Fun.id values))

let rect_of_string s =
  let who = "Stored.rect_of_string" in
  match String.split_on_char '\n' s with
  | magic :: dx :: dy :: bins_line :: total_line :: rest when String.trim magic = magic_rect
    -> (
    let ( let* ) = Result.bind in
    let* x_lo, x_hi = parse_float_pair who ~key:"domain_x" dx in
    let* y_lo, y_hi = parse_float_pair who ~key:"domain_y" dy in
    let* bins_x, bins_y =
      match String.split_on_char ' ' (String.trim bins_line) with
      | [ "bins"; a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some i, Some j when i > 0 && j > 0 -> Ok (i, j)
        | _ -> Error (who ^ ": malformed bins line"))
      | _ -> Error (who ^ ": missing bins line")
    in
    let* total =
      match String.split_on_char ' ' (String.trim total_line) with
      | [ "total"; v ] -> (
        match float_of_string_opt v with
        | Some t when t > 0.0 && Float.is_finite t -> Ok t
        | _ -> Error (who ^ ": malformed total line"))
      | _ -> Error (who ^ ": missing total line")
    in
    if not (Float.is_finite x_lo && Float.is_finite x_hi && x_lo < x_hi) then
      Error (who ^ ": malformed domain_x bounds")
    else if not (Float.is_finite y_lo && Float.is_finite y_hi && y_lo < y_hi) then
      Error (who ^ ": malformed domain_y bounds")
    else
      let* counts = parse_floats who rest in
      if Array.length counts <> bins_x * bins_y then
        Error
          (Printf.sprintf "%s: expected %d counts, found %d" who (bins_x * bins_y)
             (Array.length counts))
      else if Array.exists (fun v -> v < 0.0 || not (Float.is_finite v)) counts then
        Error (who ^ ": counts must be non-negative and finite")
      else
        Ok
          (rect_of_counts_exn who ~domain_x:(x_lo, x_hi) ~domain_y:(y_lo, y_hi) ~bins_x
             ~bins_y ~counts ~total))
  | _ -> Error (who ^ ": missing header")

(* ---------------- join summaries ---------------- *)

type join_pred = Join_eq | Join_lt | Join_le

let join_pred_to_string = function Join_eq -> "eq" | Join_lt -> "lt" | Join_le -> "le"

let join_pred_of_string = function
  | "eq" -> Ok Join_eq
  | "lt" -> Ok Join_lt
  | "le" -> Ok Join_le
  | s -> Error (Printf.sprintf "unknown join predicate %S (expected eq, lt or le)" s)

type join = {
  j_lo : float;
  j_hi : float; (* shared attribute domain *)
  j_n_r : int;
  j_n_s : int; (* relation sizes *)
  j_bounds_r : float array; (* strictly ascending, length buckets + 1 *)
  j_mass_r : float array; (* per-bucket probability mass, length buckets *)
  j_bounds_s : float array;
  j_mass_s : float array;
  j_sample_r : float array; (* retained build samples (sorted), for rebuilds *)
  j_sample_s : float array;
  j_eq : float; (* the bound-free answers, swept once in [join_make] *)
  j_lt : float;
}

(* Equi-depth bucketing of a sorted sample: bucket boundaries at the
   k-quantile midpoints, then zero-width buckets merged so bounds are
   strictly ascending and per-bucket densities are defined. *)
let edh_of_sorted ~domain:(lo, hi) ~buckets sorted =
  let n = Array.length sorted in
  let k = Int.min buckets n in
  let bounds = ref [ lo ] and masses = ref [] in
  let prev_pos = ref 0 and prev_bound = ref lo in
  for i = 1 to k - 1 do
    let pos = i * n / k in
    if pos > !prev_pos then begin
      let b = 0.5 *. (sorted.(pos - 1) +. sorted.(pos)) in
      if b > !prev_bound && b < hi then begin
        bounds := b :: !bounds;
        masses := (float_of_int (pos - !prev_pos) /. float_of_int n) :: !masses;
        prev_pos := pos;
        prev_bound := b
      end
    end
  done;
  bounds := hi :: !bounds;
  masses := (float_of_int (n - !prev_pos) /. float_of_int n) :: !masses;
  (Array.of_list (List.rev !bounds), Array.of_list (List.rev !masses))

(* P(x < y) for x ~ U(a1, b1), y ~ U(a2, b2): integrate the uniform CDF of
   x over y's bucket.  With c1/c2 the clamp of [a1, b1] into [a2, b2],
   the integral splits into the ramp part and the saturated tail. *)
let prob_lt ~a1 ~b1 ~a2 ~b2 =
  if b1 <= a2 then 1.0
  else if b2 <= a1 then 0.0
  else begin
    let clamp v = Float.max a2 (Float.min b2 v) in
    let c1 = clamp a1 and c2 = clamp b1 in
    let ramp = (((c2 -. a1) *. (c2 -. a1)) -. ((c1 -. a1) *. (c1 -. a1)))
               /. (2.0 *. (b1 -. a1)) in
    (ramp +. (b2 -. c2)) /. (b2 -. a2)
  end

(* N_R N_S int f_R f_S: the density-product equi-join formula on the
   bucket pair grid (each integer value occupying a unit cell, as in
   Equijoin.from_densities). *)
let join_eq_size ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s =
  let kr = Array.length mass_r and ks = Array.length mass_s in
  let acc = ref 0.0 in
  for i = 0 to kr - 1 do
    let a1 = bounds_r.(i) and b1 = bounds_r.(i + 1) in
    let dr = mass_r.(i) /. (b1 -. a1) in
    if dr > 0.0 then
      for k = 0 to ks - 1 do
        let a2 = bounds_s.(k) and b2 = bounds_s.(k + 1) in
        let overlap = Float.min b1 b2 -. Float.max a1 a2 in
        if overlap > 0.0 then
          acc := !acc +. (dr *. (mass_s.(k) /. (b2 -. a2)) *. overlap)
      done
  done;
  float_of_int n_r *. float_of_int n_s *. !acc

(* The histogram-pair sweep for R.A < S.B: sum over bucket pairs of the
   mass product times the uniform-within-bucket P(x < y). *)
let join_lt_size ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s =
  let kr = Array.length mass_r and ks = Array.length mass_s in
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

(* The one join constructor [join_of_samples] and [join_of_string] both
   go through: [eq] and [lt] take no query bounds, so both sweeps run
   once here and [join_estimate] only reads their results. *)
let join_make ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r ~sample_s =
  {
    j_lo = lo;
    j_hi = hi;
    j_n_r = n_r;
    j_n_s = n_s;
    j_bounds_r = bounds_r;
    j_mass_r = mass_r;
    j_bounds_s = bounds_s;
    j_mass_s = mass_s;
    j_sample_r = sample_r;
    j_sample_s = sample_s;
    j_eq = join_eq_size ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s;
    j_lt = join_lt_size ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s;
  }

let join_of_samples ~domain:(lo, hi) ~buckets ~n_r ~n_s sample_r sample_s =
  if lo >= hi then invalid_arg "Stored.join_of_samples: empty domain";
  if buckets <= 0 then invalid_arg "Stored.join_of_samples: buckets must be positive";
  if n_r <= 0 || n_s <= 0 then
    invalid_arg "Stored.join_of_samples: relation sizes must be positive";
  if Array.length sample_r = 0 || Array.length sample_s = 0 then
    invalid_arg "Stored.join_of_samples: empty sample";
  let prep sample =
    if Array.exists (fun v -> not (Float.is_finite v)) sample then
      invalid_arg "Stored.join_of_samples: sample values must be finite";
    let s = Array.map (fun v -> Float.max lo (Float.min hi v)) sample in
    Array.sort Float.compare s;
    s
  in
  let sr = prep sample_r and ss = prep sample_s in
  let bounds_r, mass_r = edh_of_sorted ~domain:(lo, hi) ~buckets sr in
  let bounds_s, mass_s = edh_of_sorted ~domain:(lo, hi) ~buckets ss in
  join_make ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r:sr ~sample_s:ss

let join_domain j = (j.j_lo, j.j_hi)
let join_sizes j = (j.j_n_r, j.j_n_s)
let join_buckets j = (Array.length j.j_mass_r, Array.length j.j_mass_s)
let join_samples j = (j.j_sample_r, j.j_sample_s)

let join_estimate j ~pred =
  match pred with Join_eq -> j.j_eq | Join_lt -> j.j_lt | Join_le -> j.j_lt +. j.j_eq

let magic_join = "selest-stored-join v1"

let join_to_string j =
  let buf =
    Buffer.create
      (16 * (Array.length j.j_bounds_r + Array.length j.j_bounds_s
            + Array.length j.j_sample_r + Array.length j.j_sample_s))
  in
  Buffer.add_string buf (magic_join ^ "\n");
  Buffer.add_string buf (Printf.sprintf "domain %.17g %.17g\n" j.j_lo j.j_hi);
  Buffer.add_string buf (Printf.sprintf "sizes %d %d\n" j.j_n_r j.j_n_s);
  let section name values =
    Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Array.length values));
    Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) values
  in
  section "bounds_r" j.j_bounds_r;
  section "mass_r" j.j_mass_r;
  section "bounds_s" j.j_bounds_s;
  section "mass_s" j.j_mass_s;
  section "sample_r" j.j_sample_r;
  section "sample_s" j.j_sample_s;
  Buffer.contents buf

let join_of_string s =
  let who = "Stored.join_of_string" in
  match String.split_on_char '\n' s with
  | magic :: domain_line :: sizes_line :: rest when String.trim magic = magic_join -> (
    let ( let* ) = Result.bind in
    let* lo, hi = parse_float_pair who ~key:"domain" domain_line in
    let* n_r, n_s =
      match String.split_on_char ' ' (String.trim sizes_line) with
      | [ "sizes"; a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some r, Some s when r > 0 && s > 0 -> Ok (r, s)
        | _ -> Error (who ^ ": malformed sizes line"))
      | _ -> Error (who ^ ": missing sizes line")
    in
    if not (Float.is_finite lo && Float.is_finite hi && lo < hi) then
      Error (who ^ ": malformed domain bounds")
    else begin
      (* Each section is "name <count>" followed by that many values. *)
      let section name lines =
        match lines with
        | header :: rest -> (
          match String.split_on_char ' ' (String.trim header) with
          | [ n; c ] when n = name -> (
            match int_of_string_opt c with
            | Some count when count >= 0 ->
              let rec take acc k = function
                | rest when k = 0 -> Ok (List.rev acc, rest)
                | [] -> Error (Printf.sprintf "%s: truncated %s section" who name)
                | line :: rest -> (
                  match float_of_string_opt (String.trim line) with
                  | Some v -> take (v :: acc) (k - 1) rest
                  | None -> Error (Printf.sprintf "%s: malformed %s value" who name))
              in
              Result.map
                (fun (vs, rest) -> (Array.of_list vs, rest))
                (take [] count rest)
            | _ -> Error (Printf.sprintf "%s: malformed %s count" who name))
          | _ -> Error (Printf.sprintf "%s: missing %s section" who name))
        | [] -> Error (Printf.sprintf "%s: missing %s section" who name)
      in
      let* bounds_r, rest = section "bounds_r" rest in
      let* mass_r, rest = section "mass_r" rest in
      let* bounds_s, rest = section "bounds_s" rest in
      let* mass_s, rest = section "mass_s" rest in
      let* sample_r, rest = section "sample_r" rest in
      let* sample_s, rest = section "sample_s" rest in
      let* () =
        if List.exists (fun l -> String.trim l <> "") rest then
          Error (who ^ ": trailing garbage after sections")
        else Ok ()
      in
      let ascending a =
        let ok = ref (Array.length a >= 2) in
        for i = 0 to Array.length a - 2 do
          if not (a.(i) < a.(i + 1)) then ok := false
        done;
        !ok && Array.for_all Float.is_finite a
      in
      let valid_hist bounds mass =
        ascending bounds
        && Array.length mass = Array.length bounds - 1
        && Array.for_all (fun v -> v >= 0.0 && Float.is_finite v) mass
        && bounds.(0) = lo
        && bounds.(Array.length bounds - 1) = hi
      in
      if not (valid_hist bounds_r mass_r) then Error (who ^ ": malformed R histogram")
      else if not (valid_hist bounds_s mass_s) then Error (who ^ ": malformed S histogram")
      else if
        Array.length sample_r = 0 || Array.length sample_s = 0
        || not (Array.for_all Float.is_finite sample_r)
        || not (Array.for_all Float.is_finite sample_s)
      then Error (who ^ ": malformed samples")
      else
        Ok
          (join_make ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r
             ~sample_s)
    end)
  | _ -> Error (who ^ ": missing header")

(* ---------------- kind-dispatched summaries ---------------- *)

type kind = Range_kind | Rect_kind | Join_kind

let kind_name = function
  | Range_kind -> "range"
  | Rect_kind -> "rect"
  | Join_kind -> "join"

let kind_of_name = function
  | "range" -> Ok Range_kind
  | "rect" -> Ok Rect_kind
  | "join" -> Ok Join_kind
  | s -> Error (Printf.sprintf "unknown summary kind %S (expected range, rect or join)" s)

type any = Range of t | Rect of rect | Join of join

let any_kind = function Range _ -> Range_kind | Rect _ -> Rect_kind | Join _ -> Join_kind

let any_cells = function
  | Range t -> cells t
  | Rect r -> r.rbins_x * r.rbins_y
  | Join j -> Array.length j.j_mass_r + Array.length j.j_mass_s

let any_domain = function
  | Range t -> domain t
  | Rect r -> fst (rect_domains r)
  | Join j -> join_domain j

let any_to_string = function
  | Range t -> to_string t
  | Rect r -> rect_to_string r
  | Join j -> join_to_string j

(* Compact spec syntax for the non-range kinds, mirroring
   [Estimator.spec_of_string]'s role for range entries: the catalog
   stores the spec string with each entry and re-parses it on rebuild. *)
let rect_spec_of_string s =
  match String.index_opt s ':' with
  | None when s = "hist2d" -> Ok (32, 32)
  | Some i when String.sub s 0 i = "hist2d" -> (
    let opt = String.sub s (i + 1) (String.length s - i - 1) in
    let parse_bins b =
      match int_of_string_opt b with Some k when k >= 1 -> Some k | _ -> None
    in
    match String.split_on_char 'x' opt with
    | [ b ] -> (
      match parse_bins b with
      | Some k -> Ok (k, k)
      | None -> Error (Printf.sprintf "malformed rect spec %S" s))
    | [ bx; by ] -> (
      match (parse_bins bx, parse_bins by) with
      | Some kx, Some ky -> Ok (kx, ky)
      | _ -> Error (Printf.sprintf "malformed rect spec %S" s))
    | _ -> Error (Printf.sprintf "malformed rect spec %S" s))
  | _ -> Error (Printf.sprintf "unknown rect spec %S (expected hist2d[:BX[xBY]])" s)

let join_spec_of_string s =
  match String.index_opt s ':' with
  | None when s = "edh" -> Ok 64
  | Some i when String.sub s 0 i = "edh" -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (Printf.sprintf "malformed join spec %S" s))
  | _ -> Error (Printf.sprintf "unknown join spec %S (expected edh[:BUCKETS])" s)

(* Dispatch on the header line; each sub-parser re-checks it, so a
   mislabeled payload still maps to Error. *)
let any_of_string s =
  let header =
    match String.index_opt s '\n' with
    | Some i -> String.trim (String.sub s 0 i)
    | None -> String.trim s
  in
  if header = magic_range then Result.map (fun t -> Range t) (of_string s)
  else if header = magic_rect then Result.map (fun r -> Rect r) (rect_of_string s)
  else if header = magic_join then Result.map (fun j -> Join j) (join_of_string s)
  else Error "Stored.any_of_string: missing header"

(* Knots at bin centers plus one zero knot half a bin outside each border:
   knot j (0 <= j <= k+1) sits at lo + (j - 0.5) * h with height 0 for the
   border knots and n_i / (n h) for bin i = j - 1.  The density is linear
   between consecutive knots, so the selectivity over any interval is a sum
   of trapezoids. *)

type t = {
  knots_x : float array; (* k + 2 knot positions, strictly increasing *)
  knots_y : float array; (* densities at the knots *)
}

let of_histogram h =
  let k = Histogram.bins h in
  let edges = Histogram.edges h in
  let counts = Histogram.counts h in
  let total = Histogram.total_count h in
  let width = (edges.(k) -. edges.(0)) /. float_of_int k in
  for i = 0 to k - 1 do
    let w = edges.(i + 1) -. edges.(i) in
    if Float.abs (w -. width) > 1e-9 *. width then
      invalid_arg "Frequency_polygon.of_histogram: histogram must be equi-width"
  done;
  let knots_x =
    Array.init (k + 2) (fun j -> edges.(0) +. ((float_of_int j -. 0.5) *. width))
  in
  let knots_y =
    Array.init (k + 2) (fun j ->
        if j = 0 || j = k + 1 then 0.0 else counts.(j - 1) /. (total *. width))
  in
  { knots_x; knots_y }

let build ~domain ~bins samples = of_histogram (Builders.equi_width ~domain ~bins samples)

let bins t = Array.length t.knots_x - 2

let density t x =
  let m = Array.length t.knots_x in
  if x <= t.knots_x.(0) || x >= t.knots_x.(m - 1) then 0.0
  else begin
    let j = Stats.Array_util.float_upper_bound t.knots_x x - 1 in
    let j = Int.max 0 (Int.min (m - 2) j) in
    let x0 = t.knots_x.(j) and x1 = t.knots_x.(j + 1) in
    let y0 = t.knots_y.(j) and y1 = t.knots_y.(j + 1) in
    y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
  end

(* Integral of the linear segment j over [a, b] clipped to the segment. *)
let segment_integral t j a b =
  let x0 = t.knots_x.(j) and x1 = t.knots_x.(j + 1) in
  let lo = Float.max a x0 and hi = Float.min b x1 in
  if lo >= hi then 0.0
  else begin
    let y_at x =
      t.knots_y.(j)
      +. ((t.knots_y.(j + 1) -. t.knots_y.(j)) *. (x -. x0) /. (x1 -. x0))
    in
    0.5 *. (y_at lo +. y_at hi) *. (hi -. lo)
  end

let selectivity t ~a ~b =
  if a > b then 0.0
  else begin
    let m = Array.length t.knots_x in
    let first = Int.max 0 (Stats.Array_util.float_upper_bound t.knots_x a - 1) in
    let acc = ref 0.0 in
    let j = ref first in
    while !j < m - 1 && t.knots_x.(!j) < b do
      acc := !acc +. segment_integral t !j a b;
      incr j
    done;
    Float.max 0.0 (Float.min 1.0 !acc)
  end

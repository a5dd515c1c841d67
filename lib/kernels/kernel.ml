type t =
  | Epanechnikov
  | Biweight
  | Triweight
  | Triangular
  | Box
  | Cosine
  | Gaussian

let all = [ Epanechnikov; Biweight; Triweight; Triangular; Box; Cosine; Gaussian ]

let name = function
  | Epanechnikov -> "epanechnikov"
  | Biweight -> "biweight"
  | Triweight -> "triweight"
  | Triangular -> "triangular"
  | Box -> "box"
  | Cosine -> "cosine"
  | Gaussian -> "gaussian"

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun k -> name k = s) all

let half_pi = Float.pi /. 2.0

(* [eval] and [cdf] are forced inline: called directly in a per-sample
   loop, a non-inlined call would box the float argument and result on
   every sample (this toolchain has no flambda).  Inlined, the whole
   computation stays in registers. *)
let[@inline always] eval k t =
  match k with
  | Epanechnikov -> if Float.abs t <= 1.0 then 0.75 *. (1.0 -. (t *. t)) else 0.0
  | Biweight ->
    if Float.abs t <= 1.0 then begin
      let u = 1.0 -. (t *. t) in
      15.0 /. 16.0 *. u *. u
    end
    else 0.0
  | Triweight ->
    if Float.abs t <= 1.0 then begin
      let u = 1.0 -. (t *. t) in
      35.0 /. 32.0 *. u *. u *. u
    end
    else 0.0
  | Triangular -> if Float.abs t <= 1.0 then 1.0 -. Float.abs t else 0.0
  | Box -> if Float.abs t <= 1.0 then 0.5 else 0.0
  | Cosine -> if Float.abs t <= 1.0 then Float.pi /. 4.0 *. cos (half_pi *. t) else 0.0
  | Gaussian -> Stats.Special.normal_pdf t

(* Polynomial primitives use explicit powers-by-multiplication rather than
   [( ** )]: libm [pow] costs tens of nanoseconds per call against a couple
   of multiplies, and the estimate hot path evaluates two primitives per
   sample.  The low-order bits differ from the pow-based forms, well inside
   every documented tolerance. *)
let[@inline always] cdf k t =
  match k with
  | Epanechnikov ->
    if t <= -1.0 then 0.0
    else if t >= 1.0 then 1.0
    else 0.5 +. (((3.0 *. t) -. (t *. t *. t)) /. 4.0)
  | Biweight ->
    if t <= -1.0 then 0.0
    else if t >= 1.0 then 1.0
    else begin
      let t2 = t *. t in
      let t3 = t2 *. t in
      0.5 +. (15.0 /. 16.0 *. (t -. (2.0 /. 3.0 *. t3) +. (t3 *. t2 /. 5.0)))
    end
  | Triweight ->
    if t <= -1.0 then 0.0
    else if t >= 1.0 then 1.0
    else begin
      let t2 = t *. t in
      let t3 = t2 *. t in
      let t5 = t3 *. t2 in
      0.5 +. (35.0 /. 32.0 *. (t -. t3 +. (3.0 /. 5.0 *. t5) -. (t5 *. t2 /. 7.0)))
    end
  | Triangular ->
    if t <= -1.0 then 0.0
    else if t >= 1.0 then 1.0
    else if t < 0.0 then 0.5 *. (1.0 +. t) *. (1.0 +. t)
    else 1.0 -. (0.5 *. (1.0 -. t) *. (1.0 -. t))
  | Box -> if t <= -1.0 then 0.0 else if t >= 1.0 then 1.0 else 0.5 *. (t +. 1.0)
  | Cosine ->
    if t <= -1.0 then 0.0 else if t >= 1.0 then 1.0 else 0.5 *. (1.0 +. sin (half_pi *. t))
  | Gaussian -> Stats.Special.normal_cdf t

let second_moment = function
  | Epanechnikov -> 0.2
  | Biweight -> 1.0 /. 7.0
  | Triweight -> 1.0 /. 9.0
  | Triangular -> 1.0 /. 6.0
  | Box -> 1.0 /. 3.0
  | Cosine -> 1.0 -. (8.0 /. (Float.pi *. Float.pi))
  | Gaussian -> 1.0

let roughness = function
  | Epanechnikov -> 0.6
  | Biweight -> 5.0 /. 7.0
  | Triweight -> 350.0 /. 429.0
  | Triangular -> 2.0 /. 3.0
  | Box -> 0.5
  | Cosine -> Float.pi *. Float.pi /. 16.0
  | Gaussian -> 0.5 /. 1.7724538509055159

let support_radius = function
  | Epanechnikov | Biweight | Triweight | Triangular | Box | Cosine -> Some 1.0
  | Gaussian -> None

let effective_radius k = match support_radius k with Some r -> r | None -> 8.0

let canonical_bandwidth_factor k =
  let k2 = second_moment k in
  (roughness k /. (k2 *. k2)) ** 0.2

let amise_constant k =
  let k2 = second_moment k in
  1.25 *. ((k2 *. k2 *. (roughness k ** 4.0)) ** 0.2)

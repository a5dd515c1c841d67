type t = { histos : Histogram.t array; width : float }

let build ~domain:(lo, hi) ~bins ~shifts samples =
  if lo >= hi then invalid_arg "Ash.build: empty domain";
  if bins <= 0 then invalid_arg "Ash.build: bins must be positive";
  if shifts <= 0 then invalid_arg "Ash.build: shifts must be positive";
  if Array.length samples = 0 then invalid_arg "Ash.build: empty sample";
  let h = (hi -. lo) /. float_of_int bins in
  let histos =
    Array.init shifts (fun j ->
        let origin = lo -. h +. (float_of_int j *. h /. float_of_int shifts) in
        (* Enough bins to cover [origin, hi + h]. *)
        let k = int_of_float (Float.ceil ((hi +. h -. origin) /. h)) in
        let edges = Array.init (k + 1) (fun i -> origin +. (float_of_int i *. h)) in
        Histogram.of_samples ~edges samples)
  in
  { histos; width = h }

let shifts t = Array.length t.histos
let bin_width t = t.width

let selectivity t ~a ~b =
  let m = Array.length t.histos in
  let s = ref 0.0 in
  Array.iter (fun hgm -> s := !s +. Histogram.selectivity hgm ~a ~b) t.histos;
  !s /. float_of_int m

let density t x =
  let m = Array.length t.histos in
  let s = ref 0.0 in
  Array.iter (fun hgm -> s := !s +. Histogram.density hgm x) t.histos;
  !s /. float_of_int m

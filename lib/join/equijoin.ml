let exact_size r s =
  let vr = Data.Dataset.sorted_values r and vs = Data.Dataset.sorted_values s in
  let nr = Array.length vr and ns = Array.length vs in
  let total = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < nr && !j < ns do
    let a = vr.(!i) and b = vs.(!j) in
    if a < b then incr i
    else if a > b then incr j
    else begin
      (* Count the runs of the shared value on both sides. *)
      let i0 = !i and j0 = !j in
      while !i < nr && vr.(!i) = a do
        incr i
      done;
      while !j < ns && vs.(!j) = a do
        incr j
      done;
      total := !total + ((!i - i0) * (!j - j0))
    end
  done;
  !total

let from_densities ?(grid = 2048) ~domain:(lo, hi) f_r f_s ~n_r ~n_s =
  if grid < 2 then invalid_arg "Equijoin.from_densities: grid must be >= 2";
  if n_r <= 0 || n_s <= 0 then
    invalid_arg "Equijoin.from_densities: relation sizes must be positive";
  if lo >= hi then invalid_arg "Equijoin.from_densities: empty domain";
  let xs =
    Array.init grid (fun i -> lo +. (float_of_int i /. float_of_int (grid - 1) *. (hi -. lo)))
  in
  let ys = Array.map (fun x -> f_r x *. f_s x) xs in
  let integral = Stats.Integrate.integrate_grid xs ys in
  float_of_int n_r *. float_of_int n_s *. integral

let estimate ?grid ~domain est_r est_s ~n_r ~n_s =
  if Selest.Estimator.has_density est_r && Selest.Estimator.has_density est_s then begin
    let f est x = Option.value ~default:0.0 (Selest.Estimator.density est x) in
    Some (from_densities ?grid ~domain (f est_r) (f est_s) ~n_r ~n_s)
  end
  else None

let exact_range_restricted_size r s ~lo ~hi =
  let vr = Data.Dataset.sorted_values r and vs = Data.Dataset.sorted_values s in
  let nr = Array.length vr and ns = Array.length vs in
  (* Clamp in float space to the array's value range before the int
     conversion: [int_of_float] is unspecified outside [min_int, max_int],
     so an unbounded range like [hi = infinity] must never reach it.  NaN
     bounds fail the [<=] guards and fall out as an empty range. *)
  let v_min = float_of_int vr.(0) and v_max = float_of_int vr.(nr - 1) in
  let flo = Float.ceil lo and fhi = Float.floor hi in
  if not (flo <= fhi && flo <= v_max && fhi >= v_min) then 0
  else begin
    let ilo = int_of_float (Float.max v_min flo)
    and ihi = int_of_float (Float.min v_max fhi) in
    let total = ref 0 in
    let i = ref (Stats.Array_util.int_lower_bound vr ilo) in
    let j = ref 0 in
    while !i < nr && vr.(!i) <= ihi && !j < ns do
      let a = vr.(!i) and b = vs.(!j) in
      if a < b then incr i
      else if a > b then incr j
      else begin
        let i0 = !i and j0 = !j in
        while !i < nr && vr.(!i) = a do
          incr i
        done;
        while !j < ns && vs.(!j) = a do
          incr j
        done;
        total := !total + ((!i - i0) * (!j - j0))
      end
    done;
    !total
  end

(* [None] means "these estimators cannot answer" and nothing else: the
   capability check comes first, so an empty clamped range is [Some 0.0]
   exactly when a non-empty one would have produced an estimate. *)
let range_restricted ?(grid = 2048) ~domain:(dlo, dhi) est_r est_s ~n_r ~n_s ~lo ~hi =
  if not (Selest.Estimator.has_density est_r && Selest.Estimator.has_density est_s) then
    None
  else begin
    let lo = Float.max lo dlo and hi = Float.min hi dhi in
    if lo >= hi then Some 0.0
    else begin
      let f est x = Option.value ~default:0.0 (Selest.Estimator.density est x) in
      Some (from_densities ~grid ~domain:(lo, hi) (f est_r) (f est_s) ~n_r ~n_s)
    end
  end

let sample_join sample_r sample_s ~n_r ~n_s =
  let mr = Array.length sample_r and ms = Array.length sample_s in
  if mr = 0 || ms = 0 then invalid_arg "Equijoin.sample_join: empty sample";
  if n_r <= 0 || n_s <= 0 then invalid_arg "Equijoin.sample_join: relation sizes must be positive";
  let vr = Array.copy sample_r and vs = Array.copy sample_s in
  Array.sort Float.compare vr;
  Array.sort Float.compare vs;
  let matches = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < mr && !j < ms do
    if vr.(!i) < vs.(!j) then incr i
    else if vr.(!i) > vs.(!j) then incr j
    else begin
      let v = vr.(!i) in
      let i0 = !i and j0 = !j in
      while !i < mr && vr.(!i) = v do
        incr i
      done;
      while !j < ms && vs.(!j) = v do
        incr j
      done;
      matches := !matches + ((!i - i0) * (!j - j0))
    end
  done;
  float_of_int !matches *. float_of_int n_r *. float_of_int n_s
  /. (float_of_int mr *. float_of_int ms)

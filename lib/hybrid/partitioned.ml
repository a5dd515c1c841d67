type bandwidth_rule =
  | Normal_scale_rule
  | Plug_in_rule of int

type config = {
  change_points : Change_point.config;
  min_bin_count : int;
  bandwidth_rule : bandwidth_rule;
  kernel : Kernels.Kernel.t;
}

let default_config =
  {
    change_points = Change_point.default_config;
    min_bin_count = 100;
    bandwidth_rule = Normal_scale_rule;
    kernel = Kernels.Kernel.Epanechnikov;
  }

(* A bin either runs its own kernel estimator or, when its sample is too
   small or degenerate, falls back to the uniform-within-bin rule. *)
type bin_estimator =
  | Kernel_bin of Kde.Estimator.t
  | Uniform_bin

type bin = {
  lo : float;
  hi : float;
  weight : float; (* fraction of all samples falling in this bin *)
  est : bin_estimator;
}

type t = { bins : bin array; edges : float array }

let merge_small_bins ~min_count edges counts =
  (* Repeatedly merge the smallest under-populated bin into its smaller
     neighbour until every bin is large enough (or one bin remains). *)
  let edges = ref (Array.to_list edges) and counts = ref (Array.to_list counts) in
  let rec loop () =
    let cs = Array.of_list !counts in
    let k = Array.length cs in
    if k <= 1 then ()
    else begin
      let worst = ref (-1) in
      Array.iteri (fun i c -> if c < min_count && (!worst < 0 || c < cs.(!worst)) then worst := i) cs;
      if !worst < 0 then ()
      else begin
        let i = !worst in
        let neighbour =
          if i = 0 then 1
          else if i = k - 1 then k - 2
          else if cs.(i - 1) <= cs.(i + 1) then i - 1
          else i + 1
        in
        let a = Int.min i neighbour in
        (* Merge bins a and a+1: drop edge a+1, add counts. *)
        let es = Array.of_list !edges in
        let new_edges =
          Array.to_list (Array.init (Array.length es - 1) (fun j -> if j <= a then es.(j) else es.(j + 1)))
        in
        let new_counts =
          Array.to_list
            (Array.init (k - 1) (fun j ->
                 if j < a then cs.(j) else if j = a then cs.(a) + cs.(a + 1) else cs.(j + 1)))
        in
        edges := new_edges;
        counts := new_counts;
        loop ()
      end
    end
  in
  loop ();
  (Array.of_list !edges, Array.of_list !counts)

let build_bin ~config ~lo ~hi ~weight bin_samples =
  let n = Array.length bin_samples in
  let width = hi -. lo in
  if n < 10 then { lo; hi; weight; est = Uniform_bin }
  else begin
    let scale = Stats.Quantile.robust_scale bin_samples in
    if scale <= 0.0 || not (Float.is_finite scale) then { lo; hi; weight; est = Uniform_bin }
    else begin
      let h =
        match config.bandwidth_rule with
        | Normal_scale_rule ->
          Bandwidth.Normal_scale.bandwidth ~kernel:config.kernel ~n ~scale
        | Plug_in_rule iterations ->
          Bandwidth.Plug_in.bandwidth ~iterations ~kernel:config.kernel bin_samples
      in
      (* Boundary kernels need 2h <= bin width. *)
      let h = Float.min h (0.499 *. width) in
      if h <= 0.0 then { lo; hi; weight; est = Uniform_bin }
      else begin
        let est =
          Kde.Estimator.create ~kernel:config.kernel
            ~boundary:Kde.Estimator.Boundary_kernels ~domain:(lo, hi) ~h bin_samples
        in
        { lo; hi; weight; est = Kernel_bin est }
      end
    end
  end

(* Internal build sub-phases.  Recorded under the dedicated metric
   selest_hybrid_phase_seconds rather than selest_build_phase_seconds so
   that the core build phases remain a partition of build time (the whole
   hybrid build is already one "bins" phase there). *)
let hybrid_phase name f =
  if not (Telemetry.Control.is_enabled ()) then f ()
  else
    Telemetry.Span.with_span
      ~hist:
        (Telemetry.Metrics.histogram "selest_hybrid_phase_seconds"
           ~labels:[ ("phase", name) ]
           ~help:"Hybrid.Partitioned.build time per internal phase")
      ("hybrid." ^ name) f

let build ?(config = default_config) ~domain:(lo, hi) samples =
  if lo >= hi then invalid_arg "Hybrid.build: empty domain";
  let n = Array.length samples in
  if n = 0 then invalid_arg "Hybrid.build: empty sample";
  let points =
    hybrid_phase "change_points" (fun () ->
        Change_point.detect ~config:config.change_points ~domain:(lo, hi) samples)
  in
  let edges = Array.of_list (lo :: points @ [ hi ]) in
  let sorted = Array.copy samples in
  hybrid_phase "sort" (fun () -> Array.sort Float.compare sorted);
  let count_between a b =
    Stats.Array_util.float_upper_bound sorted b - Stats.Array_util.float_lower_bound sorted a
  in
  let counts =
    Array.init (Array.length edges - 1) (fun i ->
        (* Bin i owns (c_i, c_{i+1}]; the first bin also owns its left edge.
           Count via half-open arithmetic on the sorted array. *)
        let a = edges.(i) and b = edges.(i + 1) in
        if i = 0 then count_between a b
        else
          Stats.Array_util.float_upper_bound sorted b
          - Stats.Array_util.float_upper_bound sorted a)
  in
  let edges, _counts =
    hybrid_phase "merge" (fun () ->
        merge_small_bins ~min_count:config.min_bin_count edges counts)
  in
  let k = Array.length edges - 1 in
  let bins =
    hybrid_phase "bandwidth" (fun () ->
        Array.init k (fun i ->
            let a = edges.(i) and b = edges.(i + 1) in
            let i0 =
              if i = 0 then Stats.Array_util.float_lower_bound sorted a
              else Stats.Array_util.float_upper_bound sorted a
            in
            let i1 = Stats.Array_util.float_upper_bound sorted b in
            let bin_samples = Array.sub sorted i0 (Int.max 0 (i1 - i0)) in
            let weight = float_of_int (Array.length bin_samples) /. float_of_int n in
            if Array.length bin_samples = 0 then
              { lo = a; hi = b; weight; est = Uniform_bin }
            else build_bin ~config ~lo:a ~hi:b ~weight bin_samples))
  in
  { bins; edges }

let partition t = t.edges

let bin_count t = Array.length t.bins

let bin_selectivity bin ~a ~b =
  let a = Float.max a bin.lo and b = Float.min b bin.hi in
  if a >= b then 0.0
  else
    match bin.est with
    | Uniform_bin -> bin.weight *. ((b -. a) /. (bin.hi -. bin.lo))
    | Kernel_bin est -> bin.weight *. Kde.Estimator.selectivity est ~a ~b

let selectivity t ~a ~b =
  if a > b then 0.0
  else begin
    let s = Array.fold_left (fun acc bin -> acc +. bin_selectivity bin ~a ~b) 0.0 t.bins in
    Float.max 0.0 (Float.min 1.0 s)
  end

let density t x =
  let k = Array.length t.bins in
  if k = 0 || x < t.edges.(0) || x > t.edges.(k) then 0.0
  else begin
    let j = Stats.Array_util.float_lower_bound t.edges x in
    let i = Int.max 0 (Int.min (k - 1) (j - 1)) in
    let bin = t.bins.(i) in
    match bin.est with
    | Uniform_bin -> bin.weight /. (bin.hi -. bin.lo)
    | Kernel_bin est -> bin.weight *. Kde.Estimator.density est x
  end

type bins_rule =
  | Fixed_bins of int
  | Normal_scale_bins
  | Plug_in_bins of int

type bandwidth_rule =
  | Fixed_bandwidth of float
  | Normal_scale_bandwidth
  | Plug_in_bandwidth of int
  | Lscv_bandwidth

type spec =
  | Sampling
  | Uniform_assumption
  | Equi_width of bins_rule
  | Equi_depth of { bins : int }
  | Max_diff of { bins : int }
  | Ash of { bins : bins_rule; shifts : int }
  | Kernel of {
      kernel : Kernels.Kernel.t;
      boundary : Kde.Estimator.boundary_policy;
      bandwidth : bandwidth_rule;
    }
  | Hybrid_spec of {
      bandwidth : bandwidth_rule;
      min_bin_count : int;
      max_change_points : int;
    }
  | Frequency_polygon of bins_rule
  | V_optimal of { bins : int }
  | Wavelet_spec of { coefficients : int }

let kernel_defaults =
  Kernel
    {
      kernel = Kernels.Kernel.Epanechnikov;
      boundary = Kde.Estimator.Boundary_kernels;
      bandwidth = Plug_in_bandwidth 2;
    }

(* Per-bin one-step plug-in bandwidths with a generous change-point budget:
   the configuration that dominates on the change-point-heavy (real-like)
   files while staying competitive on smooth synthetic data. *)
let hybrid_defaults =
  Hybrid_spec { bandwidth = Plug_in_bandwidth 1; min_bin_count = 100; max_change_points = 16 }

let bins_rule_name = function
  | Fixed_bins k -> string_of_int k
  | Normal_scale_bins -> "NS"
  | Plug_in_bins i -> Printf.sprintf "DPI%d" i

let bandwidth_rule_name = function
  | Fixed_bandwidth h -> Printf.sprintf "h=%g" h
  | Normal_scale_bandwidth -> "NS"
  | Plug_in_bandwidth i -> Printf.sprintf "DPI%d" i
  | Lscv_bandwidth -> "LSCV"

let spec_name = function
  | Sampling -> "Sampling"
  | Uniform_assumption -> "Uniform"
  | Equi_width rule -> Printf.sprintf "EWH(%s)" (bins_rule_name rule)
  | Equi_depth { bins } -> Printf.sprintf "EDH(%d)" bins
  | Max_diff { bins } -> Printf.sprintf "MDH(%d)" bins
  | Ash { bins; shifts } -> Printf.sprintf "ASH(%s,m=%d)" (bins_rule_name bins) shifts
  | Kernel { kernel; boundary; bandwidth } ->
    Printf.sprintf "Kernel(%s,%s,%s)"
      (Kernels.Kernel.name kernel)
      (Kde.Estimator.boundary_policy_name boundary)
      (bandwidth_rule_name bandwidth)
  | Hybrid_spec { bandwidth; _ } -> Printf.sprintf "Hybrid(%s)" (bandwidth_rule_name bandwidth)
  | Frequency_polygon rule -> Printf.sprintf "FP(%s)" (bins_rule_name rule)
  | V_optimal { bins } -> Printf.sprintf "VOH(%d)" bins
  | Wavelet_spec { coefficients } -> Printf.sprintf "Wave(%d)" coefficients

(* --- telemetry (metric names documented in docs/TELEMETRY.md) --- *)

let m_builds =
  Telemetry.Metrics.counter "selest_build_total" ~help:"Estimator.build invocations"

let m_selectivity =
  Telemetry.Metrics.histogram "selest_selectivity_seconds"
    ~help:"Latency of Estimator.selectivity calls"

let build_hist spec_v =
  Telemetry.Metrics.histogram "selest_build_seconds"
    ~labels:[ ("spec", spec_name spec_v) ]
    ~help:"End-to-end Estimator.build latency per spec"

(* One phase of a build: a span (nested under "build") plus a per-spec,
   per-phase latency histogram.  The phases wrapped in [build] partition
   each build branch, so for every spec the phase sums add up to the total
   recorded in selest_build_seconds (and to the harness's build_s) up to
   closure-setup noise. *)
let phase spec_v name f =
  if not (Telemetry.Control.is_enabled ()) then f ()
  else
    Telemetry.Span.with_span
      ~hist:
        (Telemetry.Metrics.histogram "selest_build_phase_seconds"
           ~labels:[ ("phase", name); ("spec", spec_name spec_v) ]
           ~help:"Estimator.build time per build phase and spec")
      ("build." ^ name) f

(* --- compact spec syntax (CLI) --- *)

let split_options s =
  match String.index_opt s ':' with
  | None -> (s, [])
  | Some i ->
    let head = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (head, String.split_on_char ',' rest)

let parse_bandwidth_option opt =
  let starts_with prefix = String.length opt >= String.length prefix
                           && String.sub opt 0 (String.length prefix) = prefix in
  if opt = "ns" then Some Normal_scale_bandwidth
  else if opt = "lscv" then Some Lscv_bandwidth
  else if starts_with "dpi" then
    int_of_string_opt (String.sub opt 3 (String.length opt - 3))
    |> Option.map (fun i -> Plug_in_bandwidth i)
  else if starts_with "h=" then
    float_of_string_opt (String.sub opt 2 (String.length opt - 2))
    |> Option.map (fun h -> Fixed_bandwidth h)
  else None

let parse_boundary_option = function
  | "none" -> Some Kde.Estimator.No_treatment
  | "reflection" -> Some Kde.Estimator.Reflection
  | "bk" | "boundary-kernels" -> Some Kde.Estimator.Boundary_kernels
  | _ -> None

let parse_bins_option opt =
  let starts_with prefix = String.length opt >= String.length prefix
                           && String.sub opt 0 (String.length prefix) = prefix in
  if opt = "ns" then Some Normal_scale_bins
  else if starts_with "dpi" then
    int_of_string_opt (String.sub opt 3 (String.length opt - 3))
    |> Option.map (fun i -> Plug_in_bins i)
  else int_of_string_opt opt |> Option.map (fun k -> Fixed_bins k)

let spec_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let head, opts = split_options s in
  let invalid opt = Error (Printf.sprintf "unknown option %S for estimator %S" opt head) in
  match (head, opts) with
  | "sampling", [] -> Ok Sampling
  | "uniform", [] -> Ok Uniform_assumption
  | "ewh", [] -> Ok (Equi_width Normal_scale_bins)
  | "ewh", [ opt ] -> (
    match parse_bins_option opt with Some rule -> Ok (Equi_width rule) | None -> invalid opt)
  | "edh", [] -> Ok (Equi_depth { bins = 40 })
  | "edh", [ opt ] -> (
    match int_of_string_opt opt with
    | Some bins when bins >= 1 -> Ok (Equi_depth { bins })
    | Some _ | None -> invalid opt)
  | "mdh", [] -> Ok (Max_diff { bins = 40 })
  | "mdh", [ opt ] -> (
    match int_of_string_opt opt with
    | Some bins when bins >= 1 -> Ok (Max_diff { bins })
    | Some _ | None -> invalid opt)
  | "ash", [] -> Ok (Ash { bins = Normal_scale_bins; shifts = 10 })
  | "ash", [ opt ] -> (
    match parse_bins_option opt with
    | Some rule -> Ok (Ash { bins = rule; shifts = 10 })
    | None -> invalid opt)
  | "ash", [ opt; shifts_s ] -> (
    match (parse_bins_option opt, int_of_string_opt shifts_s) with
    | Some rule, Some shifts when shifts >= 1 -> Ok (Ash { bins = rule; shifts })
    | _, _ -> invalid (opt ^ "," ^ shifts_s))
  | "kernel", opts ->
    let rec apply acc = function
      | [] -> Ok acc
      | opt :: rest -> (
        match parse_bandwidth_option opt with
        | Some bw -> (
          match acc with
          | Kernel k -> apply (Kernel { k with bandwidth = bw }) rest
          | _ -> assert false)
        | None -> (
          match parse_boundary_option opt with
          | Some boundary -> (
            match acc with
            | Kernel k -> apply (Kernel { k with boundary }) rest
            | _ -> assert false)
          | None -> (
            match Kernels.Kernel.of_name opt with
            | Some kernel -> (
              match acc with
              | Kernel k -> apply (Kernel { k with kernel }) rest
              | _ -> assert false)
            | None -> invalid opt)))
    in
    apply kernel_defaults (List.filter (fun o -> o <> "") opts)
  | "fp", [] -> Ok (Frequency_polygon Normal_scale_bins)
  | "fp", [ opt ] -> (
    match parse_bins_option opt with
    | Some rule -> Ok (Frequency_polygon rule)
    | None -> invalid opt)
  | "voh", [] -> Ok (V_optimal { bins = 40 })
  | "voh", [ opt ] -> (
    match int_of_string_opt opt with
    | Some bins when bins >= 1 -> Ok (V_optimal { bins })
    | Some _ | None -> invalid opt)
  | ("wave" | "wavelet"), [] -> Ok (Wavelet_spec { coefficients = 40 })
  | ("wave" | "wavelet"), [ opt ] -> (
    match int_of_string_opt opt with
    | Some coefficients when coefficients >= 1 -> Ok (Wavelet_spec { coefficients })
    | Some _ | None -> invalid opt)
  | "hybrid", [] -> Ok hybrid_defaults
  | "hybrid", [ opt ] -> (
    match (parse_bandwidth_option opt, hybrid_defaults) with
    | Some bw, Hybrid_spec h -> Ok (Hybrid_spec { h with bandwidth = bw })
    | None, _ -> invalid opt
    | Some _, _ -> assert false)
  | _, _ -> Error (Printf.sprintf "unknown estimator %S" s)

(* The queryable estimator: name + closures over the fitted structure. *)
type t = {
  spec : spec;
  selectivity : a:float -> b:float -> float;
  density : (float -> float) option;
}

let name t = spec_name t.spec
let spec t = t.spec

(* The per-call flag check keeps the disabled path allocation-free: one
   atomic load, then straight into the fitted closure. *)
let selectivity t ~a ~b =
  if not (Telemetry.Control.is_enabled ()) then t.selectivity ~a ~b
  else begin
    let t0 = Telemetry.Control.now_ns () in
    let s = t.selectivity ~a ~b in
    Telemetry.Metrics.observe_ns m_selectivity (Telemetry.Control.now_ns () - t0);
    s
  end
let density t x = Option.map (fun f -> f x) t.density
let has_density t = Option.is_some t.density

let estimate_count t ~n_records ~a ~b = float_of_int n_records *. t.selectivity ~a ~b

let resolve_bins rule ~domain samples =
  match rule with
  | Fixed_bins k ->
    if k < 1 then invalid_arg "Estimator.build: bins must be >= 1";
    k
  | Normal_scale_bins -> Bandwidth.Normal_scale.bin_count_of_samples ~domain samples
  | Plug_in_bins iterations -> Bandwidth.Plug_in.bin_count ~iterations ~domain samples

let resolve_bandwidth rule ~kernel samples =
  match rule with
  | Fixed_bandwidth h ->
    if h <= 0.0 || not (Float.is_finite h) then
      invalid_arg "Estimator.build: bandwidth must be positive and finite";
    h
  | Normal_scale_bandwidth -> Bandwidth.Normal_scale.bandwidth_of_samples ~kernel samples
  | Plug_in_bandwidth iterations -> Bandwidth.Plug_in.bandwidth ~iterations ~kernel samples
  | Lscv_bandwidth -> Bandwidth.Lscv.bandwidth ~kernel samples

let sampling_estimator samples =
  let xs = Array.copy samples in
  Array.sort Float.compare xs;
  xs

let sampling_selectivity xs =
  let n = float_of_int (Array.length xs) in
  fun ~a ~b ->
    if a > b then 0.0
    else begin
      let c =
        Stats.Array_util.float_upper_bound xs b - Stats.Array_util.float_lower_bound xs a
      in
      float_of_int c /. n
    end

(* Build phases (telemetry): "bandwidth" covers smoothing-parameter
   selection (bandwidth and bin-count rules alike), "sort" the
   sorted-sample index construction, "bins" the bin/coefficient structure
   construction.  The hybrid estimator's internal sub-phases (including
   bin merging) are recorded separately by Hybrid.Partitioned under
   selest_hybrid_phase_seconds. *)
let build_estimator spec_v ~domain samples =
  let lo, hi = domain in
  match spec_v with
  | Sampling ->
    let xs = phase spec_v "sort" (fun () -> sampling_estimator samples) in
    { spec = spec_v; selectivity = sampling_selectivity xs; density = None }
  | Uniform_assumption ->
    let h = phase spec_v "bins" (fun () -> Histograms.Builders.uniform ~domain samples) in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Histogram.selectivity h ~a ~b);
      density = Some (Histograms.Histogram.density h);
    }
  | Equi_width rule ->
    let bins = phase spec_v "bandwidth" (fun () -> resolve_bins rule ~domain samples) in
    let h =
      phase spec_v "bins" (fun () -> Histograms.Builders.equi_width ~domain ~bins samples)
    in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Histogram.selectivity h ~a ~b);
      density = Some (Histograms.Histogram.density h);
    }
  | Equi_depth { bins } ->
    let h =
      phase spec_v "bins" (fun () -> Histograms.Builders.equi_depth ~domain ~bins samples)
    in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Histogram.selectivity h ~a ~b);
      density = Some (Histograms.Histogram.density h);
    }
  | Max_diff { bins } ->
    let h =
      phase spec_v "bins" (fun () -> Histograms.Builders.max_diff ~domain ~bins samples)
    in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Histogram.selectivity h ~a ~b);
      density = Some (Histograms.Histogram.density h);
    }
  | Ash { bins; shifts } ->
    let bins = phase spec_v "bandwidth" (fun () -> resolve_bins bins ~domain samples) in
    let ash =
      phase spec_v "bins" (fun () -> Histograms.Ash.build ~domain ~bins ~shifts samples)
    in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Ash.selectivity ash ~a ~b);
      density = Some (Histograms.Ash.density ash);
    }
  | Kernel { kernel; boundary; bandwidth } ->
    let h = phase spec_v "bandwidth" (fun () -> resolve_bandwidth bandwidth ~kernel samples) in
    (* Boundary kernels require 2h <= domain width; oversmoothed bandwidths
       on tiny domains are clamped rather than rejected. *)
    let h =
      match boundary with
      | Kde.Estimator.Boundary_kernels -> Float.min h (0.499 *. (hi -. lo))
      | Kde.Estimator.No_treatment | Kde.Estimator.Reflection -> h
    in
    let est =
      phase spec_v "sort" (fun () -> Kde.Estimator.create ~kernel ~boundary ~domain ~h samples)
    in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Kde.Estimator.selectivity est ~a ~b);
      density = Some (Kde.Estimator.density est);
    }
  | Hybrid_spec { bandwidth; min_bin_count; max_change_points } ->
    let rule =
      match bandwidth with
      | Plug_in_bandwidth i -> Hybrid.Partitioned.Plug_in_rule i
      | Normal_scale_bandwidth | Fixed_bandwidth _ | Lscv_bandwidth ->
        Hybrid.Partitioned.Normal_scale_rule
    in
    let config =
      {
        Hybrid.Partitioned.default_config with
        Hybrid.Partitioned.bandwidth_rule = rule;
        min_bin_count;
        change_points =
          { Hybrid.Change_point.default_config with max_change_points };
      }
    in
    let est = phase spec_v "bins" (fun () -> Hybrid.Partitioned.build ~config ~domain samples) in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Hybrid.Partitioned.selectivity est ~a ~b);
      density = Some (Hybrid.Partitioned.density est);
    }
  | Frequency_polygon rule ->
    let bins = phase spec_v "bandwidth" (fun () -> resolve_bins rule ~domain samples) in
    let fp =
      phase spec_v "bins" (fun () -> Histograms.Frequency_polygon.build ~domain ~bins samples)
    in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Frequency_polygon.selectivity fp ~a ~b);
      density = Some (Histograms.Frequency_polygon.density fp);
    }
  | V_optimal { bins } ->
    let h = phase spec_v "bins" (fun () -> Histograms.V_optimal.build ~domain ~bins samples) in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Histogram.selectivity h ~a ~b);
      density = Some (Histograms.Histogram.density h);
    }
  | Wavelet_spec { coefficients } ->
    if coefficients < 1 then invalid_arg "Estimator.build: coefficients must be >= 1";
    let h =
      phase spec_v "bins" (fun () -> Histograms.Wavelet.build ~domain ~coefficients samples)
    in
    {
      spec = spec_v;
      selectivity = (fun ~a ~b -> Histograms.Histogram.selectivity h ~a ~b);
      density = Some (Histograms.Histogram.density h);
    }

let build spec_v ~domain samples =
  if Array.length samples = 0 then invalid_arg "Estimator.build: empty sample";
  let lo, hi = domain in
  if lo >= hi then invalid_arg "Estimator.build: empty domain";
  if not (Telemetry.Control.is_enabled ()) then build_estimator spec_v ~domain samples
  else begin
    Telemetry.Metrics.incr m_builds;
    Telemetry.Span.with_span ~hist:(build_hist spec_v) "build" (fun () ->
        build_estimator spec_v ~domain samples)
  end

let default_suite =
  [
    Equi_width Normal_scale_bins;
    kernel_defaults;
    hybrid_defaults;
    Ash { bins = Normal_scale_bins; shifts = 10 };
  ]

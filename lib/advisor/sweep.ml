module D = Data.Dataset
module Q = Workload.Query
module Est = Selest.Estimator

type measurement = {
  m_spec : string;
  m_label : string;
  m_placement : Workloads.placement;
  m_target : float;
  m_summary : Workload.Metrics.summary;
}

type cost = {
  c_spec : string;
  c_label : string;
  c_build_s : float;
  c_ns_per_estimate : float;
  c_vc_epsilon : float option;
}

type t = {
  s_dataset : string;
  s_records : int;
  s_sample_size : int;
  s_seed : int64;
  s_tolerance : float;
  s_count : int;
  s_stored_cells : int;
  s_specs : (string * Est.spec) list;
  s_workloads : (Workloads.placement * float * Workloads.t) list;
  s_skipped : Workloads.failure list;
  s_cells : measurement list;
  s_costs : cost list;
}

let spec_exn s =
  match Est.spec_of_string s with
  | Ok spec -> (s, spec)
  | Error msg -> invalid_arg (Printf.sprintf "Advisor.Sweep: bad suite spec %S: %s" s msg)

let default_suite =
  List.map spec_exn
    [
      "uniform";
      "sampling";
      "ewh";
      "fp";
      "edh:40";
      "mdh:40";
      "wave:64";
      "ash";
      "voh:24";
      "kernel:ns";
      "kernel";
      "hybrid";
    ]

(* sqrt (c/n * (d + ln (1/delta))) at d = 2 (1-D ranges), c = 0.5,
   delta = 0.05 — see the .mli and PAPERS.md. *)
let vc_epsilon ~n =
  if n < 1 then invalid_arg "Advisor.Sweep.vc_epsilon: n must be >= 1";
  sqrt (0.5 /. float_of_int n *. (2.0 +. log (1. /. 0.05)))

(* One prepared workload cell: its queries occupy [p_pos, p_pos + p_n) of
   the grid-wide bound arrays the served evaluator consumes, and its truths
   are computed once and shared by every spec. *)
type prepared = {
  p_placement : Workloads.placement;
  p_target : float;
  p_pos : int;
  p_n : int;
  p_truth : float array;
}

(* Per-query cost of the served evaluator over the concatenated grid,
   repeated until the measurement spans at least ~10 ms (or a rep cap) to
   get past timer granularity. *)
let time_evaluator summary ~a ~b ~out =
  let len = Array.length a in
  Selest.Stored.selectivity_into summary ~pos:0 ~len ~a ~b ~out;
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < 0.01 && !reps < 200 do
    Selest.Stored.selectivity_into summary ~pos:0 ~len ~a ~b ~out;
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed /. float_of_int !reps /. float_of_int len *. 1e9

let run ?(jobs = 1) ?(specs = default_suite) ?targets ?placements
    ?(tolerance = Workloads.default_tolerance) ?(count = 200) ~cells ds ~seed ~sample =
  if specs = [] then invalid_arg "Advisor.Sweep.run: empty spec suite";
  if Array.length sample = 0 then invalid_arg "Advisor.Sweep.run: empty sample";
  if cells < 1 then invalid_arg "Advisor.Sweep.run: cells must be >= 1";
  let grid = Workloads.grid ds ~seed ?targets ?placements ~tolerance ~count () in
  let workloads =
    List.filter_map
      (function p, t, Ok wl -> Some (p, t, wl) | _, _, Error _ -> None)
      grid
  in
  let skipped =
    List.filter_map (function _, _, Error f -> Some f | _, _, Ok _ -> None) grid
  in
  if workloads = [] then
    invalid_arg "Advisor.Sweep.run: no workload cell achieved its target";
  let queries =
    Array.concat
      (List.map (fun (_, _, (wl : Workloads.t)) -> wl.Workloads.queries) workloads)
  in
  let all_a = Array.map (fun (q : Q.t) -> q.Q.lo) queries in
  let all_b = Array.map (fun (q : Q.t) -> q.Q.hi) queries in
  let pos = ref 0 in
  let prepared =
    List.map
      (fun (placement, target, (wl : Workloads.t)) ->
        let qs = wl.Workloads.queries in
        let truth (q : Q.t) = float_of_int (D.exact_count ds ~lo:q.Q.lo ~hi:q.Q.hi) in
        let p =
          {
            p_placement = placement;
            p_target = target;
            p_pos = !pos;
            p_n = Array.length qs;
            p_truth = Array.map truth qs;
          }
        in
        pos := !pos + p.p_n;
        p)
      workloads
  in
  let domain = Workload.Experiment.domain_of ds in
  let n_records = float_of_int (D.size ds) in
  let evaluate (spec_string, spec) =
    let t0 = Unix.gettimeofday () in
    let est = Est.build spec ~domain sample in
    let summary = Selest.Stored.of_estimator ~cells ~domain est in
    let build_s = Unix.gettimeofday () -. t0 in
    let label = Est.name est in
    let out = Array.make (Array.length all_a) 0. in
    let ns = time_evaluator summary ~a:all_a ~b:all_b ~out in
    let measurements =
      List.map
        (fun p ->
          let pairs =
            Array.init p.p_n (fun i -> (p.p_truth.(i), out.(p.p_pos + i) *. n_records))
          in
          {
            m_spec = spec_string;
            m_label = label;
            m_placement = p.p_placement;
            m_target = p.p_target;
            m_summary = Workload.Metrics.summarize pairs;
          })
        prepared
    in
    let vc =
      match spec with
      | Est.Sampling -> Some (vc_epsilon ~n:(Array.length sample))
      | _ -> None
    in
    ( measurements,
      {
        c_spec = spec_string;
        c_label = label;
        c_build_s = build_s;
        c_ns_per_estimate = ns;
        c_vc_epsilon = vc;
      } )
  in
  let results = Parallel.Map.map ~jobs evaluate (Array.of_list specs) in
  {
    s_dataset = D.name ds;
    s_records = D.size ds;
    s_sample_size = Array.length sample;
    s_seed = seed;
    s_tolerance = tolerance;
    s_count = count;
    s_stored_cells = cells;
    s_specs = specs;
    s_workloads = workloads;
    s_skipped = skipped;
    s_cells = List.concat_map fst (Array.to_list results);
    s_costs = List.map snd (Array.to_list results);
  }

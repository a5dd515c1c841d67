type weights = {
  w_accuracy : float;
  w_build : float;
  w_query : float;
  w_tie_margin : float;
}

let default_weights =
  { w_accuracy = 1.0; w_build = 0.0; w_query = 0.0; w_tie_margin = 0.10 }

let validate_weights w =
  if not (w.w_accuracy > 0.) then
    invalid_arg "Advisor.Recommend: w_accuracy must be positive";
  if w.w_build < 0. || w.w_query < 0. then
    invalid_arg "Advisor.Recommend: cost weights must be non-negative";
  if not (w.w_tie_margin >= 0. && w.w_tie_margin < 1.) then
    invalid_arg "Advisor.Recommend: w_tie_margin must be in [0, 1)"

let weights_of_string s =
  let parts = String.split_on_char ',' (String.trim s) in
  let parse f =
    match float_of_string_opt (String.trim f) with
    | Some v when v >= 0. && v = v -> Ok v
    | _ -> Error (Printf.sprintf "bad weight %S (expected a non-negative number)" f)
  in
  let ( let* ) = Result.bind in
  match parts with
  | [ a; b; q ] | [ a; b; q; _ ] -> (
      let* acc = parse a in
      let* build = parse b in
      let* query = parse q in
      let* margin =
        match parts with
        | [ _; _; _; m ] -> parse m
        | _ -> Ok default_weights.w_tie_margin
      in
      let w =
        { w_accuracy = acc; w_build = build; w_query = query; w_tie_margin = margin }
      in
      match validate_weights w with
      | () -> Ok w
      | exception Invalid_argument msg -> Error msg)
  | _ ->
      Error
        (Printf.sprintf
           "bad weights %S (expected accuracy,build,query[,tie-margin])" s)

type t = {
  r_spec : string;
  r_label : string;
  r_parsed : Selest.Estimator.spec;
  r_score : float;
  r_mean_mre : float;
  r_best_mre : float;
  r_regret : float;
  r_oracle_mre : float;
  r_oracle_regret : float;
  r_weights : weights;
  r_front : Pareto.point list;
  r_crossover : Pareto.band list;
  r_vc_epsilon : float option;
  r_provenance : string;
}

let choose ~weights points =
  validate_weights weights;
  let front = Pareto.front points in
  match front with
  | [] -> None
  | _ ->
      let max_of f = List.fold_left (fun acc p -> Float.max acc (f p)) 0. front in
      let max_mre = max_of (fun (p : Pareto.point) -> p.Pareto.p_mre) in
      let max_build = max_of (fun (p : Pareto.point) -> p.Pareto.p_build_s) in
      let max_ns = max_of (fun (p : Pareto.point) -> p.Pareto.p_ns) in
      let norm v m = if m > 0. then v /. m else 0. in
      let score (p : Pareto.point) =
        (weights.w_accuracy *. norm p.Pareto.p_mre max_mre)
        +. (weights.w_build *. norm p.Pareto.p_build_s max_build)
        +. (weights.w_query *. norm p.Pareto.p_ns max_ns)
      in
      let scored = List.map (fun p -> (score p, p)) front in
      let best = List.fold_left (fun acc (s, _) -> Float.min acc s) infinity scored in
      (* the tie band is relative; candidates inside it resolve to the
         earliest (cheapest, by suite order) spec *)
      let cutoff = best +. (weights.w_tie_margin *. Float.abs best) in
      List.find_opt (fun (s, _) -> s <= cutoff) scored |> Option.map snd

(* regret of 0/0 is a perfect score, x/0 with x > 0 unbounded *)
let safe_ratio num den = if den > 0. then num /. den else if num = 0. then 1. else infinity

let recommend ?(weights = default_weights) (s : Sweep.t) =
  let points = Pareto.points_of_sweep s in
  match choose ~weights points with
  | None -> Error "Advisor.Recommend: sweep produced no candidate specs"
  | Some p -> (
      match Selest.Estimator.spec_of_string p.Pareto.p_spec with
      | Error msg ->
          Error (Printf.sprintf "Advisor.Recommend: unparseable winner %S: %s" p.Pareto.p_spec msg)
      | Ok parsed ->
          let front = Pareto.front points in
          let crossover = Pareto.crossover s in
          let best_mre =
            List.fold_left
              (fun acc (q : Pareto.point) -> Float.min acc q.Pareto.p_mre)
              infinity points
          in
          let oracle_mre =
            let n = List.length crossover in
            List.fold_left
              (fun acc (b : Pareto.band) -> acc +. b.Pareto.b_winner_mre)
              0. crossover
            /. float_of_int (max 1 n)
          in
          (* recompute the winning score exactly as [choose] saw it *)
          let max_of f = List.fold_left (fun acc q -> Float.max acc (f q)) 0. front in
          let max_mre = max_of (fun (q : Pareto.point) -> q.Pareto.p_mre) in
          let max_build = max_of (fun (q : Pareto.point) -> q.Pareto.p_build_s) in
          let max_ns = max_of (fun (q : Pareto.point) -> q.Pareto.p_ns) in
          let norm v m = if m > 0. then v /. m else 0. in
          let score =
            (weights.w_accuracy *. norm p.Pareto.p_mre max_mre)
            +. (weights.w_build *. norm p.Pareto.p_build_s max_build)
            +. (weights.w_query *. norm p.Pareto.p_ns max_ns)
          in
          let vc =
            List.find_map
              (fun (c : Sweep.cost) ->
                if c.Sweep.c_spec = p.Pareto.p_spec then c.Sweep.c_vc_epsilon else None)
              s.Sweep.s_costs
          in
          let regret = safe_ratio p.Pareto.p_mre best_mre in
          let oracle_regret = safe_ratio p.Pareto.p_mre oracle_mre in
          let bands =
            List.length
              (List.sort_uniq compare
                 (List.map (fun (_, t, _) -> t) s.Sweep.s_workloads))
          in
          let placements =
            List.length
              (List.sort_uniq compare
                 (List.map (fun (pl, _, _) -> pl) s.Sweep.s_workloads))
          in
          let provenance =
            Printf.sprintf
              "advisor v1 spec=%s dataset=%s seed=%Ld sample=%d grid=%dx%d count=%d \
               cells=%d mre=%.6g regret=%.3f"
              p.Pareto.p_spec s.Sweep.s_dataset s.Sweep.s_seed s.Sweep.s_sample_size
              bands placements s.Sweep.s_count s.Sweep.s_stored_cells p.Pareto.p_mre regret
          in
          Ok
            {
              r_spec = p.Pareto.p_spec;
              r_label = p.Pareto.p_label;
              r_parsed = parsed;
              r_score = score;
              r_mean_mre = p.Pareto.p_mre;
              r_best_mre = best_mre;
              r_regret = regret;
              r_oracle_mre = oracle_mre;
              r_oracle_regret = oracle_regret;
              r_weights = weights;
              r_front = front;
              r_crossover = crossover;
              r_vc_epsilon = vc;
              r_provenance = provenance;
            })

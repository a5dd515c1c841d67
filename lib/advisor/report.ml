type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  match classify_float f with
  | FP_nan | FP_infinite -> "null"
  | _ ->
      (* shortest representation that round-trips *)
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) item)
          items;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            go (indent + 2) item)
          fields;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let schema = "selest-advisor-report v1"

let summary_json (s : Workload.Metrics.summary) =
  Obj
    [
      ("mre", Float s.Workload.Metrics.mre);
      ("mae", Float s.Workload.Metrics.mae);
      ("mean_signed", Float s.Workload.Metrics.mean_signed);
      ("max_relative", Float s.Workload.Metrics.max_relative);
      ("evaluated", Int s.Workload.Metrics.evaluated);
      ("skipped_empty", Int s.Workload.Metrics.skipped_empty);
    ]

let spec_row label summary = Obj [ ("label", String label); ("summary", summary_json summary) ]

let compare_report ~dataset ~records ~sample_size ~fraction ~count rows =
  Obj
    [
      ("schema", String schema);
      ("kind", String "compare");
      ("dataset", String dataset);
      ("records", Int records);
      ("sample_size", Int sample_size);
      ( "workload",
        Obj [ ("fraction", Float fraction); ("count", Int count) ] );
      ("specs", List (List.map (fun (label, s) -> spec_row label s) rows));
    ]

let placement_json p = String (Workloads.placement_name p)

let workload_json (placement, target, (wl : Workloads.t)) =
  Obj
    [
      ("placement", placement_json placement);
      ("target", Float target);
      ("tolerance", Float wl.Workloads.tolerance);
      ("count", Int (Array.length wl.Workloads.queries));
      ("mean_achieved", Float wl.Workloads.mean_achieved);
    ]

let skipped_json (f : Workloads.failure) =
  Obj
    [
      ("placement", placement_json f.Workloads.f_placement);
      ("target", Float f.Workloads.f_target);
      ("best_achieved", Float f.Workloads.f_best);
      ("reason", String f.Workloads.f_reason);
    ]

let cost_json (c : Sweep.cost) =
  Obj
    [
      ("spec", String c.Sweep.c_spec);
      ("label", String c.Sweep.c_label);
      ("build_s", Float c.Sweep.c_build_s);
      ("ns_per_estimate", Float c.Sweep.c_ns_per_estimate);
      ( "vc_epsilon",
        match c.Sweep.c_vc_epsilon with None -> Null | Some e -> Float e );
    ]

let point_json (p : Pareto.point) =
  Obj
    [
      ("spec", String p.Pareto.p_spec);
      ("label", String p.Pareto.p_label);
      ("mean_mre", Float p.Pareto.p_mre);
      ("build_s", Float p.Pareto.p_build_s);
      ("ns_per_estimate", Float p.Pareto.p_ns);
    ]

let band_json (b : Pareto.band) =
  Obj
    [
      ("placement", placement_json b.Pareto.b_placement);
      ("target", Float b.Pareto.b_target);
      ("winner", String b.Pareto.b_winner);
      ("winner_label", String b.Pareto.b_winner_label);
      ("winner_mre", Float b.Pareto.b_winner_mre);
      ("mre_by_spec", Obj (List.map (fun (s, m) -> (s, Float m)) b.Pareto.b_mres));
    ]

let cell_json (m : Sweep.measurement) =
  Obj
    [
      ("spec", String m.Sweep.m_spec);
      ("placement", placement_json m.Sweep.m_placement);
      ("target", Float m.Sweep.m_target);
      ("summary", summary_json m.Sweep.m_summary);
    ]

let recommendation_json (r : Recommend.t) =
  Obj
    [
      ("spec", String r.Recommend.r_spec);
      ("label", String r.Recommend.r_label);
      ("score", Float r.Recommend.r_score);
      ("mean_mre", Float r.Recommend.r_mean_mre);
      ("best_mre", Float r.Recommend.r_best_mre);
      ("regret", Float r.Recommend.r_regret);
      ("oracle_mre", Float r.Recommend.r_oracle_mre);
      ("oracle_regret", Float r.Recommend.r_oracle_regret);
      ( "weights",
        Obj
          [
            ("accuracy", Float r.Recommend.r_weights.Recommend.w_accuracy);
            ("build", Float r.Recommend.r_weights.Recommend.w_build);
            ("query", Float r.Recommend.r_weights.Recommend.w_query);
            ("tie_margin", Float r.Recommend.r_weights.Recommend.w_tie_margin);
          ] );
      ( "vc_epsilon",
        match r.Recommend.r_vc_epsilon with None -> Null | Some e -> Float e );
      ("provenance", String r.Recommend.r_provenance);
    ]

let advise_report (s : Sweep.t) (r : Recommend.t) =
  Obj
    [
      ("schema", String schema);
      ("kind", String "advise");
      ("dataset", String s.Sweep.s_dataset);
      ("records", Int s.Sweep.s_records);
      ("sample_size", Int s.Sweep.s_sample_size);
      ("seed", Int (Int64.to_int s.Sweep.s_seed));
      ("tolerance", Float s.Sweep.s_tolerance);
      ("count", Int s.Sweep.s_count);
      ("summary_cells", Int s.Sweep.s_stored_cells);
      ("workloads", List (List.map workload_json s.Sweep.s_workloads));
      ("skipped", List (List.map skipped_json s.Sweep.s_skipped));
      ("costs", List (List.map cost_json s.Sweep.s_costs));
      ("cells", List (List.map cell_json s.Sweep.s_cells));
      ("crossover", List (List.map band_json (Recommend.(r.r_crossover))));
      ("pareto_front", List (List.map point_json (Recommend.(r.r_front))));
      ("recommendation", recommendation_json r);
    ]

(* selest: command-line interface to the selectivity-estimation library.

   Subcommands:
     datasets    list the Table 2 catalog with summary statistics
     export      write a catalog dataset's values to a file (one per line)
     estimate    answer one range query with a chosen estimator vs the truth
     compare     MRE of several estimators on a size-separated query file
     advise      sweep the estimator zoo over a targeted-selectivity grid
                 and recommend a spec from the measured Pareto fronts
     sweep       MRE of the equi-width histogram across bin counts
     bandwidths  show the smoothing parameters the rules pick for a sample
     analyze     per-position error profile of an estimator (Figures 3/10)
     lookup      query-latency micro-benchmark for one estimator
     join        equi-join size estimate from per-relation samples
     catalog     persisted summary catalog: build / ls / query / invalidate
     serve       network estimate server over a catalog directory
     loadgen     closed-loop load generator against a running server

   The global --stats flag (any subcommand) enables telemetry and prints
   the recorded counters, histograms, and spans when the command exits. *)

module Est = Selest.Estimator
module E = Workload.Experiment
module G = Workload.Generate

open Cmdliner

(* --- shared arguments --- *)

let file_arg =
  let doc =
    "Data file: either a catalog name (one of: "
    ^ String.concat ", " Data.Catalog.names
    ^ ") or a path to a text file with one integer value per line."
  in
  Arg.(required & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Seed for dataset generation (deterministic)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let sample_seed_arg =
  let doc = "Seed for drawing the estimation sample." in
  Arg.(value & opt int64 7L & info [ "sample-seed" ] ~docv:"SEED" ~doc)

let sample_size_arg =
  let doc = "Sample size used to build estimators (the paper uses 2000)." in
  Arg.(value & opt int 2000 & info [ "sample"; "n" ] ~docv:"N" ~doc)

let load_dataset seed name =
  try Ok (Data.Catalog.find ~seed name)
  with Not_found -> (
    if Sys.file_exists name then
      try Ok (Data.Io.load ~path:name ()) with
      | Invalid_argument msg | Sys_error msg -> Error msg
    else Error (Printf.sprintf "unknown data file %S; try `selest datasets`" name))

let estimator_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Est.spec_of_string s) in
  let print fmt spec = Format.pp_print_string fmt (Est.spec_name spec) in
  Arg.conv (parse, print)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("selest: " ^ msg);
    exit 1

(* --- datasets --- *)

let datasets_cmd =
  let run seed =
    Printf.printf "%-8s %-4s %-9s %-9s %-8s\n" "file" "p" "records" "distinct" "max_dup";
    List.iter
      (fun name ->
        let ds = Data.Catalog.find ~seed name in
        Printf.printf "%-8s %-4d %-9d %-9d %-8d\n" name (Data.Dataset.bits ds)
          (Data.Dataset.size ds)
          (Data.Dataset.distinct_count ds)
          (Data.Dataset.max_duplicate_frequency ds))
      Data.Catalog.names
  in
  let doc = "List the Table 2 data-file catalog with summary statistics." in
  Cmd.v (Cmd.info "datasets" ~doc) Term.(const run $ seed_arg)

(* --- export --- *)

let export_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH"
         ~doc:"Output path (one integer value per line).")
  in
  let run seed name out =
    let ds = or_die (load_dataset seed name) in
    Data.Io.save ds ~path:out;
    Printf.printf "wrote %d values of %s to %s\n" (Data.Dataset.size ds) name out
  in
  let doc = "Write a catalog dataset's attribute values to a file." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ seed_arg $ file_arg $ out_arg)

(* --- estimate --- *)

let estimate_cmd =
  let estimator_arg =
    Arg.(value & opt estimator_conv Est.kernel_defaults
         & info [ "estimator"; "e" ] ~docv:"SPEC"
             ~doc:"Estimator spec, e.g. sampling, ewh, ewh:40, kernel:ns, hybrid.")
  in
  let a_arg =
    Arg.(required & opt (some float) None & info [ "a" ] ~docv:"A" ~doc:"Range lower bound.")
  in
  let b_arg =
    Arg.(required & opt (some float) None & info [ "b" ] ~docv:"B" ~doc:"Range upper bound.")
  in
  let run seed sample_seed n name spec a b =
    let ds = or_die (load_dataset seed name) in
    let sample = E.sample_of ds ~seed:sample_seed ~n in
    let est = Est.build spec ~domain:(E.domain_of ds) sample in
    let truth = Data.Dataset.exact_count ds ~lo:a ~hi:b in
    let sel = Est.selectivity est ~a ~b in
    let guess = Est.estimate_count est ~n_records:(Data.Dataset.size ds) ~a ~b in
    Printf.printf "file:        %s\n" (Data.Dataset.describe ds);
    Printf.printf "estimator:   %s  (sample of %d records)\n" (Est.name est) n;
    Printf.printf "query:       [%g, %g]\n" a b;
    Printf.printf "selectivity: %.6f\n" sel;
    Printf.printf "estimated:   %.0f records\n" guess;
    Printf.printf "exact:       %d records\n" truth;
    if truth > 0 then
      Printf.printf "rel. error:  %.2f%%\n"
        (100.0 *. Float.abs (guess -. float_of_int truth) /. float_of_int truth)
  in
  let doc = "Estimate the selectivity of one range query and compare with the truth." in
  Cmd.v (Cmd.info "estimate" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ file_arg $ estimator_arg
          $ a_arg $ b_arg)

(* --- compare --- *)

let fraction_arg =
  Arg.(value & opt float 0.01
       & info [ "size"; "s" ] ~docv:"FRACTION"
           ~doc:"Query width as a fraction of the domain (paper: 0.01-0.10).")

let count_arg =
  Arg.(value & opt int 1000 & info [ "queries"; "q" ] ~docv:"N" ~doc:"Number of queries.")

let compare_cmd =
  let estimators_arg =
    Arg.(value & opt_all estimator_conv []
         & info [ "estimator"; "e" ] ~docv:"SPEC"
             ~doc:"Estimator to include (repeatable); defaults to the paper's Figure 12 suite.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Evaluate estimators on $(docv) parallel domains (1 = sequential). The \
                   reported numbers are bit-identical for every value.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the machine-readable report instead of the table (the advisor's \
                   shared report schema; see docs/ADVISOR.md).")
  in
  let run seed sample_seed n name fraction count jobs json specs =
    if jobs < 1 then or_die (Error "compare: --jobs must be >= 1");
    let ds = or_die (load_dataset seed name) in
    let sample = E.sample_of ds ~seed:sample_seed ~n in
    let queries = G.size_separated ds ~seed:9L ~fraction ~count in
    let specs = if specs = [] then Est.default_suite else specs in
    let rows = E.compare_specs ~jobs ds ~sample ~queries specs in
    if json then
      print_string
        (Advisor.Report.to_string
           (Advisor.Report.compare_report ~dataset:(Data.Dataset.name ds)
              ~records:(Data.Dataset.size ds) ~sample_size:n ~fraction ~count rows))
    else begin
      Printf.printf "file: %s   queries: %d x %.1f%%   sample: %d   jobs: %d\n\n"
        (Data.Dataset.name ds) count (100.0 *. fraction) n jobs;
      Printf.printf "%-36s %-8s %-10s %-10s\n" "estimator" "mre%" "mae" "worst_rel";
      List.iter
        (fun (label, summary) ->
          Printf.printf "%-36s %-8.2f %-10.1f %-10.2f\n" label
            (100.0 *. summary.Workload.Metrics.mre)
            summary.Workload.Metrics.mae summary.Workload.Metrics.max_relative)
        rows
    end
  in
  let doc = "Compare estimators' mean relative error on a size-separated query file." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ file_arg $ fraction_arg
          $ count_arg $ jobs_arg $ json_arg $ estimators_arg)

(* --- advise --- *)

let advise_cmd =
  let attr_arg =
    let doc =
      "Attribute to advise on: a catalog name (one of: "
      ^ String.concat ", " Data.Catalog.names
      ^ ") or a path to a text file with one integer value per line."
    in
    Arg.(required & opt (some string) None
         & info [ "attr"; "file"; "f" ] ~docv:"ATTR" ~doc)
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Sweep specs on $(docv) parallel domains (1 = sequential). Swept error \
                   figures are bit-identical for every value; wall-clock costs are not.")
  in
  let weights_arg =
    Arg.(value & opt (some string) None
         & info [ "weights"; "w" ] ~docv:"ACC,BUILD,QUERY[,MARGIN]"
             ~doc:"Scoring weights over normalized mean MRE, build time and ns/estimate, \
                   plus an optional relative tie margin. The default (1,0,0,0.1) is \
                   accuracy-first: specs within 10% of the best score tie and the \
                   cheapest wins.")
  in
  let targets_arg =
    Arg.(value & opt (some string) None
         & info [ "targets" ] ~docv:"T1,T2,..."
             ~doc:"Target selectivities as fractions in (0, 1]; default \
                   0.001,0.01,0.05,0.1,0.25,0.5.")
  in
  let placements_arg =
    Arg.(value & opt (some string) None
         & info [ "placements" ] ~docv:"P1,P2,..."
             ~doc:"Query-center placement profiles: $(b,data) (follows the records), \
                   $(b,uniform) (uniform positions), $(b,antimode) (low-density \
                   regions); default data,uniform.")
  in
  let tolerance_arg =
    Arg.(value & opt float Advisor.Workloads.default_tolerance
         & info [ "tolerance" ] ~docv:"T"
             ~doc:"Accepted relative deviation of achieved from target selectivity, in \
                   (0, 1).")
  in
  let wl_count_arg =
    Arg.(value & opt int 200
         & info [ "queries"; "q" ] ~docv:"N" ~doc:"Queries per workload grid cell.")
  in
  let query_seed_arg =
    Arg.(value & opt int64 9L
         & info [ "query-seed" ] ~docv:"SEED" ~doc:"Seed for workload synthesis.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the machine-readable report (shared schema with \
                   $(b,compare --json); see docs/ADVISOR.md).")
  in
  let parse_targets s =
    let parts = String.split_on_char ',' s in
    let floats = List.filter_map (fun p -> float_of_string_opt (String.trim p)) parts in
    if List.length floats <> List.length parts || floats = [] then
      Error (Printf.sprintf "advise: bad --targets %S" s)
    else Ok floats
  in
  let parse_placements s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match Advisor.Workloads.placement_of_string p with
        | Ok pl -> go (pl :: acc) rest
        | Error msg -> Error ("advise: " ^ msg))
    in
    go [] parts
  in
  let run seed sample_seed n attr jobs weights targets placements tolerance count
      query_seed json =
    if jobs < 1 then or_die (Error "advise: --jobs must be >= 1");
    let ds = or_die (load_dataset seed attr) in
    let sample = E.sample_of ds ~seed:sample_seed ~n in
    let weights =
      match weights with
      | None -> Advisor.Recommend.default_weights
      | Some s -> or_die (Advisor.Recommend.weights_of_string s)
    in
    let targets = Option.map (fun s -> or_die (parse_targets s)) targets in
    let placements = Option.map (fun s -> or_die (parse_placements s)) placements in
    let sweep =
      try
        Advisor.Sweep.run ~jobs ?targets ?placements ~tolerance ~count
          ~cells:Catalog.Service.(default_config.cells) ds ~seed:query_seed ~sample
      with Invalid_argument msg -> or_die (Error msg)
    in
    let r = or_die (Advisor.Recommend.recommend ~weights sweep) in
    if json then
      print_string (Advisor.Report.to_string (Advisor.Report.advise_report sweep r))
    else begin
      let module W = Advisor.Workloads in
      let module P = Advisor.Pareto in
      let module R = Advisor.Recommend in
      let module S = Advisor.Sweep in
      Printf.printf "file: %s   records: %d   sample: %d   jobs: %d\n"
        (Data.Dataset.name ds) (Data.Dataset.size ds) n jobs;
      Printf.printf "workload grid: %d cell(s) x %d queries, tolerance +/-%.0f%%\n"
        (List.length sweep.S.s_workloads) count (100.0 *. tolerance);
      Printf.printf "scored: served summaries of %d cells\n\n" sweep.S.s_stored_cells;
      Printf.printf "%-10s %-9s %-10s\n" "placement" "target%" "achieved%";
      List.iter
        (fun (p, t, (wl : W.t)) ->
          Printf.printf "%-10s %-9.3f %-10.3f\n" (W.placement_name p) (100.0 *. t)
            (100.0 *. wl.W.mean_achieved))
        sweep.S.s_workloads;
      List.iter
        (fun (f : W.failure) ->
          Printf.printf "skipped    %-9.3f unachievable: %s\n"
            (100.0 *. f.W.f_target) f.W.f_reason)
        sweep.S.s_skipped;
      Printf.printf "\ncrossover matrix (winner per cell):\n";
      Printf.printf "%-10s %-9s %-14s %-8s\n" "placement" "target%" "winner" "mre%";
      List.iter
        (fun (b : P.band) ->
          Printf.printf "%-10s %-9.3f %-14s %-8.2f\n"
            (W.placement_name b.P.b_placement)
            (100.0 *. b.P.b_target) b.P.b_winner
            (100.0 *. b.P.b_winner_mre))
        r.R.r_crossover;
      Printf.printf "\nper-spec costs and mean error:\n";
      Printf.printf "%-12s %-8s %-10s %-10s %-10s\n" "spec" "mre%" "build_ms" "ns/est"
        "vc_eps";
      let points = P.points_of_sweep sweep in
      List.iter2
        (fun (c : S.cost) (p : P.point) ->
          Printf.printf "%-12s %-8.2f %-10.3f %-10.0f %-10s\n" c.S.c_spec
            (100.0 *. p.P.p_mre)
            (1000.0 *. c.S.c_build_s)
            c.S.c_ns_per_estimate
            (match c.S.c_vc_epsilon with
            | None -> "-"
            | Some e -> Printf.sprintf "%.4f" e))
        sweep.S.s_costs points;
      Printf.printf "\npareto front: %s\n"
        (String.concat ", " (List.map (fun (p : P.point) -> p.P.p_spec) r.R.r_front));
      Printf.printf
        "recommendation: %s (%s)  mean mre %.2f%%  regret %.3fx vs best spec, %.3fx vs \
         per-cell oracle\n"
        r.R.r_spec r.R.r_label
        (100.0 *. r.R.r_mean_mre)
        r.R.r_regret r.R.r_oracle_regret;
      (match r.R.r_vc_epsilon with
      | Some e ->
        Printf.printf
          "confidence: sampling VC bound: selectivity within +/-%.4f with 95%% \
           probability at this sample size\n"
          e
      | None -> ());
      Printf.printf "provenance: %s\n" r.R.r_provenance
    end
  in
  let doc =
    "Sweep every estimator spec over a targeted-selectivity workload grid and recommend \
     one from the measured accuracy/build-cost/query-cost Pareto front (docs/ADVISOR.md)."
  in
  Cmd.v (Cmd.info "advise" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ attr_arg $ jobs_arg
          $ weights_arg $ targets_arg $ placements_arg $ tolerance_arg $ wl_count_arg
          $ query_seed_arg $ json_arg)

(* --- sweep --- *)

let sweep_cmd =
  let run seed sample_seed n name fraction count =
    let ds = or_die (load_dataset seed name) in
    let sample = E.sample_of ds ~seed:sample_seed ~n in
    let queries = G.size_separated ds ~seed:9L ~fraction ~count in
    Printf.printf "%-8s %-8s\n" "bins" "mre%";
    List.iter
      (fun k ->
        let mre =
          E.mre_of_spec ds ~sample ~queries (Est.Equi_width (Est.Fixed_bins k))
        in
        Printf.printf "%-8d %-8.2f\n" k (100.0 *. mre))
      [ 2; 5; 10; 20; 40; 80; 160; 320; 640; 1280 ];
    let ns = Bandwidth.Normal_scale.bin_count_of_samples ~domain:(E.domain_of ds) sample in
    Printf.printf "normal-scale rule picks %d bins\n" ns
  in
  let doc = "Equi-width histogram error as a function of the bin count (Figure 4)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ file_arg $ fraction_arg
          $ count_arg)

(* --- bandwidths --- *)

let bandwidths_cmd =
  let run seed sample_seed n name =
    let ds = or_die (load_dataset seed name) in
    let sample = E.sample_of ds ~seed:sample_seed ~n in
    let k = Kernels.Kernel.Epanechnikov in
    let scale = Bandwidth.Normal_scale.scale sample in
    Printf.printf "file: %s   sample: %d records\n\n" (Data.Dataset.name ds) n;
    Printf.printf "robust scale s = min(stddev, IQR/1.348):   %.1f\n" scale;
    Printf.printf "kernel bandwidth, normal scale (2.345):    %.1f\n"
      (Bandwidth.Normal_scale.bandwidth_of_samples ~kernel:k sample);
    Printf.printf "kernel bandwidth, plug-in (1 iteration):   %.1f\n"
      (Bandwidth.Plug_in.bandwidth ~iterations:1 ~kernel:k sample);
    Printf.printf "kernel bandwidth, plug-in (2 iterations):  %.1f\n"
      (Bandwidth.Plug_in.bandwidth ~iterations:2 ~kernel:k sample);
    Printf.printf "kernel bandwidth, LSCV:                    %.1f\n"
      (Bandwidth.Lscv.bandwidth ~kernel:k sample);
    Printf.printf "histogram bin width, normal scale:         %.1f\n"
      (Bandwidth.Normal_scale.bin_width_of_samples sample);
    Printf.printf "histogram bins, normal scale:              %d\n"
      (Bandwidth.Normal_scale.bin_count_of_samples ~domain:(E.domain_of ds) sample);
    Printf.printf "histogram bins, plug-in (2 iterations):    %d\n"
      (Bandwidth.Plug_in.bin_count ~iterations:2 ~domain:(E.domain_of ds) sample)
  in
  let doc = "Show the smoothing parameters each selection rule picks for a sample." in
  Cmd.v (Cmd.info "bandwidths" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ file_arg)

(* --- analyze / lookup: stored statistics summaries --- *)

let analyze_cmd =
  let estimator_arg =
    Arg.(value & opt estimator_conv Est.kernel_defaults
         & info [ "estimator"; "e" ] ~docv:"SPEC" ~doc:"Estimator to reduce into the summary.")
  in
  let cells_arg =
    Arg.(value & opt int 256 & info [ "cells" ] ~docv:"N" ~doc:"Summary resolution.")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH"
         ~doc:"Where to write the summary.")
  in
  let run seed sample_seed n name spec cells out =
    let ds = or_die (load_dataset seed name) in
    let sample = E.sample_of ds ~seed:sample_seed ~n in
    let domain = E.domain_of ds in
    let est = Est.build spec ~domain sample in
    let stored = Selest.Stored.of_estimator ~cells ~domain est in
    let oc = open_out out in
    output_string oc (Selest.Stored.to_string stored);
    close_out oc;
    Printf.printf "analyzed %s with %s into %d cells -> %s\n" (Data.Dataset.name ds)
      (Est.name est) cells out
  in
  let doc = "Reduce an estimator to a stored statistics summary (ANALYZE)." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ file_arg $ estimator_arg
          $ cells_arg $ out_arg)

let lookup_cmd =
  let summary_arg =
    Arg.(required & opt (some string) None & info [ "summary"; "s" ] ~docv:"PATH"
         ~doc:"Summary file written by `selest analyze`.")
  in
  let a_arg =
    Arg.(required & opt (some float) None & info [ "a" ] ~docv:"A" ~doc:"Range lower bound.")
  in
  let b_arg =
    Arg.(required & opt (some float) None & info [ "b" ] ~docv:"B" ~doc:"Range upper bound.")
  in
  let run summary a b =
    let ic = open_in summary in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Selest.Stored.of_string contents with
    | Error msg -> or_die (Error msg)
    | Ok stored ->
      let sel = Selest.Stored.selectivity stored ~a ~b in
      Printf.printf "selectivity of [%g, %g]: %.6f  (%d cells over [%g, %g])\n" a b sel
        (Selest.Stored.cells stored)
        (fst (Selest.Stored.domain stored))
        (snd (Selest.Stored.domain stored))
  in
  let doc = "Answer a range query from a stored summary, no data needed." in
  Cmd.v (Cmd.info "lookup" ~doc) Term.(const run $ summary_arg $ a_arg $ b_arg)

(* --- join --- *)

let join_cmd =
  let other_arg =
    Arg.(required & opt (some string) None & info [ "with"; "g" ] ~docv:"FILE"
         ~doc:"Second data file (same domain bits).")
  in
  let estimator_arg =
    Arg.(value & opt estimator_conv Est.kernel_defaults
         & info [ "estimator"; "e" ] ~docv:"SPEC" ~doc:"Per-relation density estimator.")
  in
  let run seed sample_seed n name other spec =
    let r = or_die (load_dataset seed name) in
    let s = or_die (load_dataset seed other) in
    if Data.Dataset.bits r <> Data.Dataset.bits s then
      or_die (Error "join: the two files must share the same domain bits");
    let domain = E.domain_of r in
    let sr = E.sample_of r ~seed:sample_seed ~n in
    let ss = E.sample_of s ~seed:(Int64.add sample_seed 1L) ~n in
    let er = Est.build spec ~domain sr and es = Est.build spec ~domain ss in
    let exact = Join.Equijoin.exact_size r s in
    Printf.printf "R: %s\nS: %s\n" (Data.Dataset.describe r) (Data.Dataset.describe s);
    (match
       Join.Equijoin.estimate ~domain er es ~n_r:(Data.Dataset.size r)
         ~n_s:(Data.Dataset.size s)
     with
    | Some est ->
      Printf.printf "estimated |R JOIN S| (%s): %.0f\n" (Est.name er) est
    | None -> print_endline "estimator exposes no density; cannot estimate");
    Printf.printf "sample-join estimate:        %.0f\n"
      (Join.Equijoin.sample_join sr ss ~n_r:(Data.Dataset.size r) ~n_s:(Data.Dataset.size s));
    Printf.printf "exact |R JOIN S|:            %d\n" exact
  in
  let doc = "Estimate the equi-join size of two data files from samples." in
  Cmd.v (Cmd.info "join" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ file_arg $ other_arg
          $ estimator_arg)

(* --- catalog: the serving layer over persisted summaries --- *)

module Cat = Catalog.Service

let catalog_dir_arg =
  Arg.(required & opt (some string) None & info [ "dir"; "d" ] ~docv:"DIR"
       ~doc:"Catalog snapshot directory (created if missing; see docs/CATALOG.md).")

let open_catalog ?config dir =
  match Cat.open_dir ?config dir with
  | svc, skipped ->
    (* Recovery events must be visible to --stats, not only to whoever
       happens to watch stderr. *)
    let skipped_counter =
      Telemetry.Metrics.counter "catalog_snapshot_skipped_total"
        ~labels:[ ("dir", Filename.basename dir) ]
        ~help:"Snapshot files skipped on open: corrupt, or orphaned temp files swept"
    in
    List.iter
      (fun (file, err) ->
        Telemetry.Metrics.incr skipped_counter;
        Printf.eprintf "selest: catalog: skipping snapshot %s: %s\n%!" file err)
      skipped;
    svc
  | exception (Invalid_argument msg | Sys_error msg) -> or_die (Error msg)

let catalog_build_cmd =
  let kind_arg =
    Arg.(value & opt (enum [ ("range", `Range); ("rect", `Rect); ("join", `Join) ]) `Range
         & info [ "kind"; "k" ] ~docv:"KIND"
             ~doc:"Summary kind to build: $(b,range) (1-D selectivity, the default), \
                   $(b,rect) (2-D rectangle grid over $(b,--file) x $(b,--with)), or \
                   $(b,join) (per-relation equi-depth histograms of $(b,--file) and \
                   $(b,--with) for equality and inequality join sizes).")
  in
  let spec_arg =
    Arg.(value & opt (some string) None & info [ "estimator"; "e"; "spec" ] ~docv:"SPEC"
         ~doc:"Summary spec in the kind's compact syntax: range specs like ewh:40 or \
               kernel (default kernel), hist2d:BXxBY for rect (default hist2d), \
               edh:BUCKETS for join (default edh). For $(b,--kind range), $(b,auto) \
               runs the advisor sweep on the sample, scoring each spec as the \
               $(b,--cells)-cell summary it would store, and builds its recommended spec, \
               recording the recommendation line as the entry's provenance.")
  in
  let with_arg =
    Arg.(value & opt (some string) None & info [ "with"; "g" ] ~docv:"FILE"
         ~doc:"Second data file: the y-attribute for $(b,--kind rect), the S relation \
               for $(b,--kind join).")
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
         ~doc:"Catalog entry name; defaults to \"<file>/<spec>\" (range) or \
               \"<file>_<kind>_<with>/<spec>\".")
  in
  let cells_arg =
    Arg.(value & opt int 256 & info [ "cells" ] ~docv:"N" ~doc:"Summary grid resolution.")
  in
  let run seed sample_seed n file kind spec with_file name dir cells =
    let ds = or_die (load_dataset seed file) in
    let svc = open_catalog ~config:{ Cat.default_config with Cat.cells } dir in
    let second what =
      match with_file with
      | Some f -> or_die (load_dataset seed f)
      | None -> or_die (Error (Printf.sprintf "catalog build --kind %s needs --with FILE" what))
    in
    let report (info : Cat.info) sample_note =
      Printf.printf "built %S: %s %s over %s, %d cells, %s -> %s\n" info.Cat.name
        (Selest.Stored.kind_name info.Cat.kind) info.Cat.spec (Data.Dataset.name ds)
        info.Cat.cells sample_note
        (Catalog.Snapshot.path ~dir info.Cat.name)
    in
    if spec = Some "auto" && kind <> `Range then
      or_die (Error "catalog build: --spec auto is only supported for --kind range");
    match kind with
    | `Range ->
      let spec = Option.value spec ~default:"kernel" in
      let sample = E.sample_of ds ~seed:sample_seed ~n in
      let spec, provenance =
        if spec <> "auto" then (spec, None)
        else begin
          (* The advisor sweeps the full suite on this very sample,
             scoring each spec as the [cells]-cell summary this build
             stores; the recommendation line rides into the entry as
             provenance so `catalog ls` can answer "why this spec?". *)
          let sweep =
            try Advisor.Sweep.run ~cells ds ~seed:9L ~sample
            with Invalid_argument msg -> or_die (Error ("catalog build: " ^ msg))
          in
          let r = or_die (Advisor.Recommend.recommend sweep) in
          Printf.printf
            "advisor: chose %s (%s) scored at %d cells: mean mre %.2f%%, regret %.3fx vs best\n"
            r.Advisor.Recommend.r_spec r.Advisor.Recommend.r_label cells
            (100.0 *. r.Advisor.Recommend.r_mean_mre)
            r.Advisor.Recommend.r_regret;
          (r.Advisor.Recommend.r_spec, Some r.Advisor.Recommend.r_provenance)
        end
      in
      let name = Option.value name ~default:(file ^ "/" ^ spec) in
      (match Cat.build ?provenance svc ~name ~spec ~domain:(E.domain_of ds) ~sample with
      | Error msg -> or_die (Error msg)
      | Ok info -> report info (Printf.sprintf "sample of %d" n))
    | `Rect ->
      let spec = Option.value spec ~default:"hist2d" in
      let dy = second "rect" in
      (* Pair the two attributes index-wise: sample both relations with
         the same seed so row i's x and y stay together. *)
      let xs = E.sample_of ds ~seed:sample_seed ~n in
      let ys = E.sample_of dy ~seed:sample_seed ~n:(Array.length xs) in
      let m = min (Array.length xs) (Array.length ys) in
      let points = Array.init m (fun i -> (xs.(i), ys.(i))) in
      let name =
        Option.value name
          ~default:(Printf.sprintf "%s_rect_%s/%s" file (Option.get with_file) spec)
      in
      (match
         Cat.build_rect svc ~name ~spec ~domain_x:(E.domain_of ds)
           ~domain_y:(E.domain_of dy) ~points
       with
      | Error msg -> or_die (Error msg)
      | Ok info -> report info (Printf.sprintf "%d points" m))
    | `Join ->
      let spec = Option.value spec ~default:"edh" in
      let s = second "join" in
      if Data.Dataset.bits ds <> Data.Dataset.bits s then
        or_die (Error "catalog build --kind join: the two files must share domain bits");
      let sample_r = E.sample_of ds ~seed:sample_seed ~n in
      let sample_s = E.sample_of s ~seed:(Int64.add sample_seed 1L) ~n in
      let name =
        Option.value name
          ~default:(Printf.sprintf "%s_join_%s/%s" file (Option.get with_file) spec)
      in
      (match
         Cat.build_join svc ~name ~spec ~domain:(E.domain_of ds)
           ~n_r:(Data.Dataset.size ds) ~n_s:(Data.Dataset.size s) ~sample_r ~sample_s
       with
      | Error msg -> or_die (Error msg)
      | Ok info ->
        report info
          (Printf.sprintf "samples of %d+%d for |R|=%d |S|=%d" (Array.length sample_r)
             (Array.length sample_s) (Data.Dataset.size ds) (Data.Dataset.size s)))
  in
  let doc =
    "ANALYZE data files into a named catalog entry of any kind: 1-D range summaries, \
     2-D rectangle grids, or join summaries (build or rebuild)."
  in
  Cmd.v (Cmd.info "build" ~doc)
    Term.(const run $ seed_arg $ sample_seed_arg $ sample_size_arg $ file_arg $ kind_arg
          $ spec_arg $ with_arg $ name_arg $ catalog_dir_arg $ cells_arg)

let catalog_ls_cmd =
  let run dir =
    let svc = open_catalog dir in
    Printf.printf "%-28s %-6s %-18s %-6s %-22s %-9s %-6s %-6s %s\n" "name" "kind" "spec"
      "cells" "domain" "inserts" "stale" "cached" "provenance";
    List.iter
      (fun (i : Cat.info) ->
        let lo, hi = i.Cat.domain in
        let domain =
          match i.Cat.domain_y with
          | None -> Printf.sprintf "[%g, %g]" lo hi
          | Some (ylo, yhi) -> Printf.sprintf "[%g,%g]x[%g,%g]" lo hi ylo yhi
        in
        Printf.printf "%-28s %-6s %-18s %-6d %-22s %-9d %-6s %-6s %s\n" i.Cat.name
          (Selest.Stored.kind_name i.Cat.kind)
          i.Cat.spec i.Cat.cells domain i.Cat.inserts
          (if i.Cat.stale then "yes" else "no")
          (if i.Cat.cached then "yes" else "no")
          (Option.value i.Cat.provenance ~default:"-"))
      (Cat.infos svc)
  in
  let doc = "List the catalog's entries (all kinds) with their staleness state." in
  Cmd.v (Cmd.info "ls" ~doc) Term.(const run $ catalog_dir_arg)

(* A batch line is "name a b"; the bounds are the last two whitespace
   tokens so names may contain spaces.  Blank lines and #-comments skip. *)
let parse_request line =
  match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line)) with
  | [] -> None
  | toks -> (
    match List.rev toks with
    | b :: a :: (_ :: _ as rev_name) -> (
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some a, Some b -> Some (Ok (String.concat " " (List.rev rev_name), a, b))
      | _ -> Some (Error (Printf.sprintf "catalog query: malformed bounds in %S" line)))
    | _ -> Some (Error (Printf.sprintf "catalog query: expected \"name a b\", got %S" line)))

let catalog_query_cmd =
  let name_arg =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
         ~doc:"Entry to query (single-query mode; requires $(b,-a) and $(b,-b)).")
  in
  let a_arg =
    Arg.(value & opt (some float) None & info [ "a" ] ~docv:"A" ~doc:"Range lower bound.")
  in
  let b_arg =
    Arg.(value & opt (some float) None & info [ "b" ] ~docv:"B" ~doc:"Range upper bound.")
  in
  let batch_arg =
    Arg.(value & opt (some string) None & info [ "batch" ] ~docv:"FILE"
         ~doc:"Batch file: one \"name a b\" request per line ('#' comments allowed).")
  in
  let run dir name a b batch =
    let svc = open_catalog dir in
    let requests =
      match (batch, name, a, b) with
      | Some path, None, None, None ->
        let ic = try open_in path with Sys_error msg -> or_die (Error msg) in
        let rec read acc =
          match input_line ic with
          | exception End_of_file ->
            close_in ic;
            List.rev acc
          | line when String.length (String.trim line) > 0 && (String.trim line).[0] = '#' ->
            read acc
          | line -> (
            match parse_request line with
            | None -> read acc
            | Some (Ok r) -> read (r :: acc)
            | Some (Error msg) -> or_die (Error msg))
        in
        Array.of_list (read [])
      | None, Some name, Some a, Some b -> [| (name, a, b) |]
      | _ ->
        or_die
          (Error "catalog query: pass either --batch FILE or --name with -a and -b")
    in
    let answers =
      try Cat.answer svc requests with Invalid_argument msg -> or_die (Error msg)
    in
    Array.iteri
      (fun i (name, a, b) ->
        Printf.printf "%-28s [%g, %g] -> %.6f\n" name a b answers.(i))
      requests;
    let s = Cat.cache_stats svc in
    Printf.printf "# %d request(s), %d entries: cache hits %d, misses %d, evictions %d\n"
      (Array.length requests)
      (List.length (Cat.names svc))
      s.Catalog.Lru.hits s.Catalog.Lru.misses s.Catalog.Lru.evictions
  in
  let doc = "Answer range queries from the catalog (no data access at query time)." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ catalog_dir_arg $ name_arg $ a_arg $ b_arg $ batch_arg)

let catalog_invalidate_cmd =
  let names_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"NAME" ~doc:"Entries to invalidate.")
  in
  let run dir names =
    let svc = open_catalog dir in
    List.iter
      (fun name ->
        match Cat.invalidate svc name with
        | Ok () -> Printf.printf "invalidated %S (stale until rebuilt)\n" name
        | Error msg -> or_die (Error msg))
      names
  in
  let doc = "Mark entries stale so the next `catalog build` refreshes them." in
  Cmd.v (Cmd.info "invalidate" ~doc) Term.(const run $ catalog_dir_arg $ names_arg)

let catalog_cmd =
  let doc =
    "Persisted estimator-summary catalog: build, list, batch-query and invalidate \
     named summaries served from an LRU cache over a snapshot directory \
     (docs/CATALOG.md)."
  in
  Cmd.group (Cmd.info "catalog" ~doc)
    [ catalog_build_cmd; catalog_ls_cmd; catalog_query_cmd; catalog_invalidate_cmd ]

(* --- serve / loadgen: the network front end over the catalog --- *)

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
       ~doc:"Serve on (or connect to) a Unix-domain socket at $(docv).")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT"
       ~doc:"Serve on (or connect to) TCP port $(docv) instead of a Unix socket.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
       ~doc:"TCP address to bind or connect to (with $(b,--port)).")

let address_of ~host ~socket ~port =
  match (socket, port) with
  | Some path, None -> Server.Wire.Unix_socket path
  | None, Some port -> Server.Wire.Tcp { host; port }
  | None, None -> or_die (Error "pass --socket PATH or --port PORT")
  | Some _, Some _ -> or_die (Error "pass either --socket or --port, not both")

let serve_cmd =
  let max_inflight_arg =
    Arg.(value & opt int Server.Engine.default_config.Server.Engine.max_inflight
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"Admission-control limit: at $(docv) requests in flight, new ones get \
                   an immediate typed `overloaded' reply.")
  in
  let deadline_arg =
    Arg.(value & opt float Server.Engine.default_config.Server.Engine.deadline_s
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Requests that waited longer than $(docv) for the catalog get a typed \
                   `timeout' reply (0 disables deadlines).")
  in
  let adaptive_arg =
    Arg.(value & flag & info [ "adaptive" ]
         ~doc:"Accept streaming inserts and query feedback: entries grow \
               reservoir samples and ST-histograms, and stale summaries are rebuilt \
               in the background and swapped atomically (docs/ADAPTIVITY.md).")
  in
  let rebuild_after_arg =
    Arg.(value & opt int Cat.default_config.Cat.rebuild_after_inserts
         & info [ "rebuild-after" ] ~docv:"N"
             ~doc:"Insert budget before an entry goes stale — with $(b,--adaptive), the \
                   background-rebuild trigger (docs/ADAPTIVITY.md).")
  in
  let run dir socket port host max_inflight deadline_s adaptive rebuild_after =
    if max_inflight < 0 then or_die (Error "serve: --max-inflight must be >= 0");
    if rebuild_after < 1 then or_die (Error "serve: --rebuild-after must be >= 1");
    let address = address_of ~host ~socket ~port in
    let service =
      open_catalog
        ~config:{ Cat.default_config with Cat.rebuild_after_inserts = rebuild_after }
        dir
    in
    if adaptive then Cat.enable_adaptive service;
    let config = { Server.Engine.default_config with Server.Engine.max_inflight; deadline_s } in
    let engine =
      try Server.Engine.create ~config ~service address
      with Unix.Unix_error (e, fn, _) ->
        or_die (Error (Printf.sprintf "serve: %s: %s" fn (Unix.error_message e)))
    in
    Server.Engine.install_sigterm engine;
    Printf.printf "serving %d entries from %s on %s%s (SIGTERM drains)\n%!"
      (List.length (Cat.names service))
      dir
      (Server.Wire.address_to_string (Server.Engine.address engine))
      (if adaptive then ", adaptive" else "");
    Server.Engine.serve engine;
    let s = Server.Engine.stats engine in
    Printf.printf
      "drained: %d connections, %d requests, %d answered, %d overloaded, %d timeouts, \
       %d refused draining, %d protocol errors, %d batches (%d queries merged)\n"
      s.Server.Engine.connections s.Server.Engine.requests s.Server.Engine.answered
      s.Server.Engine.overloaded s.Server.Engine.timeouts s.Server.Engine.refused_draining
      s.Server.Engine.protocol_errors s.Server.Engine.batches s.Server.Engine.batched_queries;
    if adaptive then Printf.printf "adaptive: %d summary swaps\n" s.Server.Engine.swaps
  in
  let doc =
    "Serve the catalog over a Unix-domain or TCP socket: concurrent estimate server with \
     deadlines, backpressure, optional adaptivity (--adaptive: streaming inserts, query \
     feedback, background rebuilds), and SIGTERM graceful drain (docs/SERVING.md, \
     docs/ADAPTIVITY.md)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ catalog_dir_arg $ socket_arg $ port_arg $ host_arg $ max_inflight_arg
          $ deadline_arg $ adaptive_arg $ rebuild_after_arg)

let loadgen_cmd =
  let connections_arg =
    Arg.(value & opt int 32 & info [ "connections"; "c" ] ~docv:"N"
         ~doc:"Concurrent connections (closed loop: one outstanding request each).")
  in
  let queries_arg =
    Arg.(value & opt int 1000 & info [ "queries"; "q" ] ~docv:"N"
         ~doc:"Total synthetic queries to issue across all connections, each matched \
               to its entry's kind.")
  in
  let batch_arg =
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N"
         ~doc:"Consecutive range estimates grouped into one batch_estimate frame (1 = \
               one request per frame).")
  in
  let verify_dir_arg =
    Arg.(value & opt ~vopt:(Some "") (some string) None & info [ "verify" ] ~docv:"DIR"
         ~doc:"After a closed-loop run, recompute every answered query directly against \
               the snapshot directory $(docv), with the Catalog.Service call of its kind, \
               and fail unless the served answers are bit-identical.  With $(b,--drift), \
               $(docv) is not needed (bare $(b,--verify)): the check asserts the drift \
               stream's invariants — every answered estimate finite in [0,1], no protocol \
               errors, and every operation class acknowledged.")
  in
  let rate_arg =
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"QPS"
         ~doc:"Open-loop mode: offer $(docv) arrivals per second on a fixed schedule \
               instead of closing the loop over $(b,--connections); arrivals that find \
               every virtual client busy are dropped and counted, and latency is \
               measured from the scheduled arrival (docs/SERVING.md).")
  in
  let duration_arg =
    Arg.(value & opt float 5.0 & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"Open-loop scheduling horizon (with $(b,--rate)).")
  in
  let max_clients_arg =
    Arg.(value & opt int 64 & info [ "max-clients" ] ~docv:"N"
         ~doc:"Open-loop virtual-client pool standing in for unbounded clients (with \
               $(b,--rate)); an arrival that finds all $(docv) busy is dropped.")
  in
  let drift_arg =
    Arg.(value & flag & info [ "drift" ]
         ~doc:"Shifting-workload mode against an adaptive server (needs $(b,--rate)): \
               a sliding-window value distribution drives interleaved inserts, \
               true-selectivity observations and estimates at one entry, and accuracy \
               is reported against the generator's analytic truth \
               (docs/ADAPTIVITY.md).")
  in
  let entry_arg =
    Arg.(value & opt (some string) None & info [ "entry" ] ~docv:"NAME"
         ~doc:"The served range entry $(b,--drift) targets (default: the first range \
               entry listed).")
  in
  let run socket port host connections queries batch seed verify rate duration_s max_clients
      drift entry =
    if connections < 1 then or_die (Error "loadgen: --connections must be >= 1");
    if queries < 0 then or_die (Error "loadgen: --queries must be >= 0");
    if batch < 1 then or_die (Error "loadgen: --batch must be >= 1");
    if drift && rate = None then or_die (Error "loadgen: --drift needs --rate");
    if entry <> None && not drift then or_die (Error "loadgen: --entry only applies to --drift");
    (match rate with
    | Some r when r <= 0.0 -> or_die (Error "loadgen: --rate must be > 0")
    | Some _ when verify <> None && not drift ->
      or_die (Error "loadgen: --verify needs the closed loop's aligned answers; drop --rate")
    | Some _ when batch <> 1 -> or_die (Error "loadgen: --batch only applies to the closed loop")
    | _ -> ());
    if duration_s <= 0.0 then or_die (Error "loadgen: --duration must be > 0");
    if max_clients < 1 then or_die (Error "loadgen: --max-clients must be >= 1");
    let address = address_of ~host ~socket ~port in
    let client =
      match Server.Client.connect address with
      | Ok c -> c
      | Error e -> or_die (Error ("loadgen: " ^ Server.Client.error_to_string e))
    in
    let entries =
      match Server.Client.ls client with
      | Ok [] -> or_die (Error "loadgen: the server has no catalog entries to query")
      | Ok entries -> entries
      | Error e -> or_die (Error ("loadgen: ls: " ^ Server.Client.error_to_string e))
    in
    Server.Client.close client;
    let requests = Server.Loadgen.synthetic_requests ~entries ~count:queries ~seed in
    match rate with
    | Some rate when drift ->
      let is_range (e : Server.Wire.entry_info) = e.Server.Wire.kind = Selest.Stored.Range_kind in
      let target =
        match entry with
        | None -> (
          match List.find_opt is_range entries with
          | Some e -> e
          | None -> or_die (Error "loadgen: --drift needs a range entry; the server has none"))
        | Some name -> (
          match
            List.find_opt (fun (e : Server.Wire.entry_info) -> e.Server.Wire.name = name) entries
          with
          | Some e when is_range e -> e
          | Some e ->
            or_die
              (Error
                 (Printf.sprintf "loadgen: --drift needs a range entry; %S is a %s entry" name
                    (Selest.Stored.kind_name e.Server.Wire.kind)))
          | None -> or_die (Error (Printf.sprintf "loadgen: no served entry named %S" name)))
      in
      let report =
        Server.Loadgen.run_drift ~max_clients ~seed ~rate ~duration_s ~entry:target
          ~address ()
      in
      print_endline (Server.Loadgen.drift_report_to_string report);
      if verify <> None then begin
        let protocolish =
          List.exists
            (fun (cls, _) -> cls = "protocol" || cls = "transport")
            report.Server.Loadgen.d_open.Server.Loadgen.o_summary.Server.Loadgen.errors
        in
        let failures = ref [] in
        if report.Server.Loadgen.d_est_invalid > 0 then
          failures := "estimates outside [0,1]" :: !failures;
        if protocolish then failures := "protocol/transport errors" :: !failures;
        if report.Server.Loadgen.d_est_ok = 0 then failures := "no estimate answered" :: !failures;
        if report.Server.Loadgen.d_insert_ok = 0 then failures := "no insert acknowledged" :: !failures;
        if report.Server.Loadgen.d_observe_ok = 0 then failures := "no observe acknowledged" :: !failures;
        match !failures with
        | [] ->
          Printf.printf
            "verify: drift ok — %d estimates in [0,1], %d inserts and %d observes acknowledged\n"
            report.Server.Loadgen.d_est_ok report.Server.Loadgen.d_insert_ok
            report.Server.Loadgen.d_observe_ok
        | fs -> or_die (Error ("loadgen: drift verify failed: " ^ String.concat "; " fs))
      end
    | Some rate ->
      let report = Server.Loadgen.run_open_loop ~max_clients ~rate ~duration_s ~address requests in
      print_endline (Server.Loadgen.open_report_to_string report)
    | None -> (
      let report = Server.Loadgen.run ~batch ~connections ~address requests in
      print_endline (Server.Loadgen.report_to_string report);
      match verify with
      | None -> ()
      | Some dir ->
        let checked, mismatched = Server.Loadgen.verify (open_catalog dir) requests report in
        Printf.printf
          "verify: %d/%d served answers bit-identical to direct Catalog.Service calls\n"
          (checked - mismatched) checked;
        if mismatched > 0 then or_die (Error "loadgen: served answers diverge from direct calls"))
  in
  let doc =
    "Load generator against a running `selest serve': synthetic queries matched to \
     each served entry's kind (range, rectangle, join) with per-kind latency groups; \
     closed loop by default (--connections workers, peak capacity), open loop with \
     --rate (fixed arrival schedule, drop/late accounting, latency from scheduled \
     arrival), shifting-workload drift mode with --drift (inserts + feedback against \
     an adaptive server); exact p50/p95/p99, error classes \
     (docs/SERVING.md, docs/ADAPTIVITY.md)."
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(const run $ socket_arg $ port_arg $ host_arg $ connections_arg
          $ queries_arg $ batch_arg $ seed_arg $ verify_dir_arg $ rate_arg
          $ duration_arg $ max_clients_arg $ drift_arg $ entry_arg)

(* --- main --- *)

(* --stats is a global flag, usable with any subcommand: enable telemetry
   before the subcommand runs, print the text report after it finishes.
   It is handled by a pre-scan of argv rather than a cmdliner term because
   telemetry must be switched on before any estimator work starts, and
   cmdliner only hands us parsed arguments once it invokes the subcommand
   body. *)
let strip_stats argv =
  let with_stats = Array.exists (String.equal "--stats") argv in
  if not with_stats then (false, argv)
  else (true, Array.of_list (List.filter (fun a -> a <> "--stats") (Array.to_list argv)))

let () =
  let stats, argv = strip_stats Sys.argv in
  if stats then Telemetry.Control.enable ();
  let doc = "Selectivity estimators for range queries on metric attributes." in
  let man =
    [
      `S Manpage.s_common_options;
      `P
        "$(b,--stats) (any subcommand): enable the telemetry subsystem for \
         the duration of the command and print a report of build-phase \
         timings, query latencies, and recorded spans to stderr when it \
         finishes.  Estimates are unaffected.  Metric names are documented \
         in docs/TELEMETRY.md.";
    ]
  in
  let info = Cmd.info "selest" ~version:"1.0.0" ~doc ~man in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let finish code =
    if stats then prerr_string (Telemetry.Export.to_text ());
    exit code
  in
  finish
    (Cmd.eval ~argv
       (Cmd.group ~default info
          [
            datasets_cmd;
            export_cmd;
            estimate_cmd;
            compare_cmd;
            advise_cmd;
            sweep_cmd;
            bandwidths_cmd;
            analyze_cmd;
            lookup_cmd;
            join_cmd;
            catalog_cmd;
            serve_cmd;
            loadgen_cmd;
          ]))

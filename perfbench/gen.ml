(* Catalog layout and seeded request streams of the serving benchmark.

   Every workload serves the same catalog shape: six range entries (three
   Table 2 files x two estimator specs), one rect entry and two join
   entries.  The data files and the ANALYZE samples are fixed (the CLI's
   default seeds), so the summaries are the same on every run; the
   benchmark seed drives only the request streams.  Range widths are drawn
   as fractions of each entry's domain, query positions follow the data
   (as in the paper's query files), and every stream is a pure function of
   (workload, seed, data). *)

module Cat = Catalog.Service
module Ds = Data.Dataset
module D2 = Multidim.Dataset2d
module Rng = Prng.Xoshiro256pp
module Wire = Server.Wire

type workload = Point | Wide_batch | Mixed_rw

let workloads = [ ("point", Point); ("wide-batch", Wide_batch); ("mixed-rw", Mixed_rw) ]
let workload_of_string s = List.assoc_opt s workloads
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Query widths as fractions of the entry's domain, inclusive. *)
type band = { lo_frac : float; hi_frac : float }

let narrow = { lo_frac = 0.001; hi_frac = 0.01 }
let wide = { lo_frac = 0.10; hi_frac = 0.50 }
let rect_band = { lo_frac = 0.05; hi_frac = 0.20 }
let band_of = function Point | Mixed_rw -> narrow | Wide_batch -> wide
let cells_of = function Wide_batch -> 4096 | Point | Mixed_rw -> 256
let adaptive_of = function Mixed_rw -> true | Point | Wide_batch -> false

let data_seed = 42L
let sample_seed = 7L
let sample_size = 2000
let range_files = [ "u(20)"; "n(20)"; "e(20)" ]
let range_specs = [ "ewh"; "kernel" ]
let rect_x = "n(20)"
let rect_y = "u(20)"
let rect_spec = "hist2d:64"
let join_r = "n(20)"
let join_s = "e(20)"
let join_specs = [ "edh:64"; "edh:256" ]
let join_preds = Selest.Stored.[ Join_eq; Join_lt; Join_le ]

(* Stream sizes: a run cycles through each connection's stream of
   requests (frames, on wide-batch). *)
let connections = 2
let stream_length = function Wide_batch -> 512 | Point | Mixed_rw -> 8192
let batch_size = 16
let rect_pool_size = 4096
let join_repeats = 64
let insert_values = 8

type range_entry = { r_name : string; r_file : string; r_spec : string }

let range_entries =
  List.concat_map
    (fun file -> List.map (fun spec -> { r_name = file ^ "/" ^ spec; r_file = file; r_spec = spec }) range_specs)
    range_files
  |> Array.of_list

let rect_name = Printf.sprintf "%s_rect_%s/%s" rect_x rect_y rect_spec

let join_names =
  Array.of_list (List.map (fun spec -> Printf.sprintf "%s_join_%s/%s" join_r join_s spec) join_specs)

type data = { files : (string * Ds.t) list; points : D2.t }

let file data name = List.assoc name data.files

let make_data () =
  let files = List.map (fun name -> (name, Data.Catalog.find ~seed:data_seed name)) range_files in
  let x = List.assoc rect_x files and y = List.assoc rect_y files in
  let xv = Ds.values x and yv = Ds.values y in
  let n = min (Array.length xv) (Array.length yv) in
  let points =
    D2.create ~name:(rect_x ^ "x" ^ rect_y) ~bits_x:(Ds.bits x) ~bits_y:(Ds.bits y)
      (Array.init n (fun i -> (xv.(i), yv.(i))))
  in
  { files; points }

let domain_of = Workload.Experiment.domain_of

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" what msg)

(* Build times in seconds, per kind, summed over that kind's entries. *)
type build_times = { range_s : float; rect_s : float; join_s : float }

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let build_catalog ~dir ~cells data =
  let svc, skipped = Cat.open_dir ~config:{ Cat.default_config with Cat.cells } dir in
  if skipped <> [] then failwith "build: the catalog directory is not empty";
  let (), range_s =
    time (fun () ->
        Array.iter
          (fun e ->
            let ds = file data e.r_file in
            let sample = Workload.Experiment.sample_of ds ~seed:sample_seed ~n:sample_size in
            ignore
              (ok_or_fail e.r_name
                 (Cat.build svc ~name:e.r_name ~spec:e.r_spec ~domain:(domain_of ds) ~sample)))
          range_entries)
  in
  let (), rect_s =
    time (fun () ->
        let points = D2.sample_without_replacement data.points (Rng.create sample_seed) ~n:sample_size in
        ignore
          (ok_or_fail rect_name
             (Cat.build_rect svc ~name:rect_name ~spec:rect_spec
                ~domain_x:(domain_of (file data rect_x))
                ~domain_y:(domain_of (file data rect_y))
                ~points)))
  in
  let (), join_s =
    time (fun () ->
        let r = file data join_r and s = file data join_s in
        let sample_r = Workload.Experiment.sample_of r ~seed:sample_seed ~n:sample_size in
        let sample_s = Workload.Experiment.sample_of s ~seed:(Int64.succ sample_seed) ~n:sample_size in
        List.iteri
          (fun i spec ->
            ignore
              (ok_or_fail join_names.(i)
                 (Cat.build_join svc ~name:join_names.(i) ~spec ~domain:(domain_of r)
                    ~n_r:(Ds.size r) ~n_s:(Ds.size s) ~sample_r ~sample_s)))
          join_specs)
  in
  { range_s; rect_s; join_s }

(* --- request generation --- *)

(* An integer width inside the band (so [b - a] is exact), placed around
   a data value and shifted, never clipped, to stay inside the domain. *)
let range_query rng data band e =
  let ds = file data e.r_file in
  let lo, hi = domain_of ds in
  let d = hi -. lo in
  let w =
    Rng.int_range rng
      (int_of_float (Float.ceil (band.lo_frac *. d)))
      (int_of_float (Float.floor (band.hi_frac *. d)))
  in
  let values = Ds.values ds in
  let c = float_of_int values.(Rng.int_below rng (Array.length values)) in
  let w = float_of_int w in
  let a = Float.floor (c -. (w /. 2.0)) +. 0.5 in
  let a = Float.max lo (Float.min a (hi -. w)) in
  (e.r_name, a, a +. w)

let random_entry rng = range_entries.(Rng.int_below rng (Array.length range_entries))

let rect_pool data rng =
  let dx = domain_of (file data rect_x) and dy = domain_of (file data rect_y) in
  let xs = D2.xs data.points and ys = D2.ys data.points in
  let side (lo, hi) c =
    let d = hi -. lo in
    let w =
      float_of_int
        (Rng.int_range rng
           (int_of_float (Float.ceil (rect_band.lo_frac *. d)))
           (int_of_float (Float.floor (rect_band.hi_frac *. d))))
    in
    let a = Float.max lo (Float.min (Float.floor (c -. (w /. 2.0)) +. 0.5) (hi -. w)) in
    (a, a +. w)
  in
  Array.init rect_pool_size (fun _ ->
      let i = Rng.int_below rng (Array.length xs) in
      let x_lo, x_hi = side dx (float_of_int xs.(i)) in
      let y_lo, y_hi = side dy (float_of_int ys.(i)) in
      Wire.Estimate_rect { entry = rect_name; x_lo; x_hi; y_lo; y_hi })

let join_queries =
  Array.concat
    (Array.to_list
       (Array.map
          (fun entry -> Array.of_list (List.map (fun pred -> Wire.Estimate_join { entry; pred }) join_preds))
          join_names))

(* Roughly 60% range reads, 10% each of rect reads, join reads, inserts
   and observes; writes go to range entries only. *)
let mixed_op data rects rng =
  match Rng.int_below rng 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 ->
    let entry, a, b = range_query rng data narrow (random_entry rng) in
    Wire.Estimate { entry; a; b; spec = "" }
  | 6 -> rects.(Rng.int_below rng (Array.length rects))
  | 7 -> join_queries.(Rng.int_below rng (Array.length join_queries))
  | 8 ->
    let e = random_entry rng in
    let values = Ds.values (file data e.r_file) in
    Wire.Insert
      {
        entry = e.r_name;
        values = Array.init insert_values (fun _ -> float_of_int values.(Rng.int_below rng (Array.length values)));
      }
  | _ ->
    let e = random_entry rng in
    let entry, a, b = range_query rng data narrow e in
    Wire.Observe { entry; a; b; actual = Ds.exact_selectivity (file data e.r_file) ~lo:a ~hi:b }

type streams = {
  per_conn : Wire.request array array;  (** the load phase cycles through these *)
  rects : Wire.request array;  (** the rect pool, verified on every workload *)
}

let streams workload ~seed data =
  let root = Rng.create (Int64.logxor (Int64.of_int seed) 0x5e1ec7L) in
  let rects = rect_pool data (Rng.substream root connections) in
  let per_conn =
    Array.init connections (fun c ->
        let rng = Rng.substream root c in
        let band = band_of workload in
        Array.init (stream_length workload) (fun _ ->
            match workload with
            | Point ->
              let entry, a, b = range_query rng data band (random_entry rng) in
              Wire.Estimate { entry; a; b; spec = "" }
            | Wide_batch ->
              Wire.Batch_estimate (Array.init batch_size (fun _ -> range_query rng data band (random_entry rng)))
            | Mixed_rw -> mixed_op data rects rng))
  in
  { per_conn; rects }

(* The verification pass, in two parts: every range read of both streams,
   sent before any write, then the probes — the rect pool and
   [join_repeats] rounds of every join query, which the mixed stream's
   rect and join reads are drawn from. *)
let verification s =
  let reads =
    List.filter
      (function Wire.Estimate _ | Wire.Batch_estimate _ -> true | _ -> false)
      (Array.to_list (Array.concat (Array.to_list s.per_conn)))
  in
  (Array.of_list reads, Array.append s.rects (Array.concat (List.init join_repeats (fun _ -> join_queries))))

(* Every range triple a request carries. *)
let range_triples = function
  | Wire.Estimate { entry; a; b; _ } -> [| (entry, a, b) |]
  | Wire.Batch_estimate t -> t
  | _ -> [||]

let queries_of req = match req with Wire.Batch_estimate t -> Array.length t | _ -> 1

let range_file_of name =
  (List.find (fun e -> e.r_name = name) (Array.to_list range_entries)).r_file

(* Cells a query overlaps in a [cells]-cell summary over [domain]: the
   per-cell walk's trip count. *)
let cells_touched ~cells (lo, hi) a b =
  let w = (hi -. lo) /. float_of_int cells in
  let first = max 0 (int_of_float (Float.floor ((a -. lo) /. w))) in
  let last = min (cells - 1) (int_of_float (Float.floor ((b -. lo) /. w))) in
  max 0 (last - first + 1)

(* The write probe of the traced run: per range entry, enough observes
   for one feedback refresh and enough inserts to trip the rebuild budget,
   so the adaptive layer's insert, observe, tick and swap costs are
   measured on every workload's summaries. *)
let write_probe data ~seed =
  let rng = Rng.create (Int64.logxor (Int64.of_int seed) 0x9b0beL) in
  let per_entry e =
    let values = Ds.values (file data e.r_file) in
    let observes =
      List.init 300 (fun _ ->
          let entry, a, b = range_query rng data narrow e in
          Wire.Observe { entry; a; b; actual = Ds.exact_selectivity (file data e.r_file) ~lo:a ~hi:b })
    in
    let inserts =
      List.init
        ((Cat.default_config.Cat.rebuild_after_inserts / insert_values) + 1)
        (fun _ ->
          Wire.Insert
            {
              entry = e.r_name;
              values = Array.init insert_values (fun _ -> float_of_int values.(Rng.int_below rng (Array.length values)));
            })
    in
    observes @ inserts
  in
  Array.of_list (List.concat_map per_entry (Array.to_list range_entries))

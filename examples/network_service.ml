(* Network service: the serve -> query -> measure -> drain lifecycle.

   Builds summaries for two attributes into a snapshot directory, puts
   them on a Unix-domain socket with Server.Engine, talks to the server
   as a client would (ping, ls, single and batched estimates, a spec
   pin that fails loudly), measures it with the closed-loop load
   generator — checking every served answer bit-identical to a direct
   Catalog.Service.answer — and finally drains it gracefully, the
   network-side serving story of docs/SERVING.md.

   Run with:  dune exec examples/network_service.exe *)

module Cat = Catalog.Service
module E = Workload.Experiment

let dir = Filename.concat (Filename.get_temp_dir_name ()) "selest_network_example"
let socket = Filename.concat (Filename.get_temp_dir_name ()) "selest_network_example.sock"
let address = Server.Wire.Unix_socket socket

let () =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);

  (* --- ANALYZE: two attributes into the snapshot directory --- *)
  let svc, _ = Cat.open_dir dir in
  List.iter
    (fun (file, spec) ->
      let relation = Data.Catalog.find ~seed:42L file in
      let sample = E.sample_of relation ~seed:7L ~n:2000 in
      match
        Cat.build svc
          ~name:(file ^ "/" ^ spec)
          ~spec ~domain:(E.domain_of relation) ~sample
      with
      | Ok info -> Printf.printf "analyzed %-12s %s\n" info.Cat.name info.Cat.spec
      | Error msg -> failwith msg)
    [ ("n(20)", "kernel"); ("u(20)", "ewh:40") ];

  (* --- Serve: the engine owns the service; one thread runs it --- *)
  let engine = Server.Engine.create ~service:svc address in
  let server_thread = Thread.create Server.Engine.serve engine in
  Printf.printf "\nserving %s on unix:%s\n\n" dir socket;

  (* --- A client conversation --- *)
  let client =
    match Server.Client.connect address with
    | Ok c -> c
    | Error e -> failwith (Server.Client.error_to_string e)
  in
  let ok = function Ok v -> v | Error e -> failwith (Server.Client.error_to_string e) in
  let entries = ok (Server.Client.ls client) in
  List.iter
    (fun (e : Server.Wire.entry_info) ->
      let lo, hi = e.domain in
      Printf.printf "ls: %-12s %-8s %4d cells, domain [%.1f, %.1f]\n" e.name e.spec
        e.cells lo hi)
    entries;

  let sel = ok (Server.Client.estimate client ~entry:"n(20)/kernel" ~a:400_000.0 ~b:600_000.0) in
  Printf.printf "estimate n(20)/kernel [400k, 600k] -> %.6f\n" sel;

  let batch =
    [|
      ("n(20)/kernel", 0.0, 1_048_575.0);
      ("u(20)/ewh:40", 100_000.0, 300_000.0);
      ("u(20)/ewh:40", 0.0, 524_287.0);
    |]
  in
  let answers = ok (Server.Client.batch_estimate client batch) in
  Array.iteri
    (fun i (name, a, b) ->
      Printf.printf "batch  %-12s [%8.0f, %8.0f] -> %.6f\n" name a b answers.(i))
    batch;

  (* A spec pin is a contract, and breaking it is a typed error, not a
     silent wrong answer. *)
  (match
     Server.Client.estimate client ~spec:"sampling" ~entry:"n(20)/kernel" ~a:0.0
       ~b:1000.0
   with
  | Ok _ -> failwith "spec pin should not have matched"
  | Error e -> Printf.printf "pinned spec refused: %s\n" (Server.Client.error_to_string e));

  (* --- Measure: closed-loop load, then verify bit-identity --- *)
  let requests = Server.Loadgen.synthetic_requests ~entries ~count:800 ~seed:11L in
  let report = Server.Loadgen.run ~connections:8 ~address requests in
  Printf.printf "\n%s\n" (Server.Loadgen.report_to_string report);

  (* The engine owns [svc], so verify against a second service opened
     afresh on the same snapshot directory — exactly what --verify does. *)
  let direct, _ = Cat.open_dir dir in
  let checked, mismatched = Server.Loadgen.verify direct requests report in
  Printf.printf "verify: %d/%d served answers bit-identical to direct Cat.answer\n"
    (checked - mismatched) (Array.length requests);

  (* --- Drain: stop accepting, answer what is in flight, exit --- *)
  Server.Engine.initiate_drain engine;
  Thread.join server_thread;
  (match Server.Client.ping client with
  | Ok () -> failwith "server should be gone"
  | Error e ->
    Printf.printf "\nafter drain, ping fails as it should: %s\n"
      (Server.Client.error_to_string e));
  Server.Client.close client;

  let s = Server.Engine.stats engine in
  Printf.printf
    "server lifetime: %d connections, %d requests, %d answered, %d batches (%.1f queries/batch)\n"
    s.Server.Engine.connections s.Server.Engine.requests s.Server.Engine.answered
    s.Server.Engine.batches
    (float_of_int s.Server.Engine.batched_queries
    /. float_of_int (max 1 s.Server.Engine.batches))

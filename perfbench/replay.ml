(* In-process replay of a request stream with no server running: the
   server-side public functions a served request passes through, each
   timed in a child span of the replayed request.

   The stored-layer spans time the same query straight on the summary
   loaded from its snapshot, after the catalog call, so the catalog's own
   overhead is the difference of the two. *)

module Cat = Catalog.Service
module Wire = Server.Wire
module St = Selest.Stored

type result = {
  requests : int;  (** requests replayed *)
  range_queries : int;  (** range queries among them *)
  swaps : int;  (** summaries swapped by the per-request ticks *)
  swap_tick_ns : int list;  (** durations of the ticks that swapped *)
}

let summaries dir =
  let entries, _ = Catalog.Snapshot.load_dir ~dir () in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (e : Catalog.Snapshot.entry) -> Hashtbl.replace tbl e.name e.summary) entries;
  tbl

let range_summary tbl name =
  match Hashtbl.find_opt tbl name with Some (St.Range s) -> s | _ -> failwith ("replay: no range summary " ^ name)

(* [run svc ~dir spans requests ~deadline_ns] replays [requests] in order
   until they run out or the deadline passes.  Ticks the adaptive runtime
   after every request when the service is adaptive, as the engine's
   dispatcher does after every batch. *)
let run svc ~dir spans requests ~deadline_ns =
  let tbl = summaries dir in
  let adaptive = Cat.adaptive_enabled svc in
  let scratch = Wire.create_scratch () in
  let reply = Buffer.create 256 in
  let n = Gen.batch_size in
  let names = Array.make n "" and qa = Array.make n 0.0 and qb = Array.make n 0.0 in
  let out = Array.make n 0.0 and sout = Array.make n 0.0 in
  let range_queries = ref 0 and swaps = ref 0 in
  let swap_ticks = ref [] in
  let now = Spans.now_ns in
  let timed name req f =
    let t0 = now () in
    let v = f () in
    Spans.span spans ~name ~req t0 (now ());
    v
  in
  (* Answer [k] range queries staged in names/qa/qb, then time the
     stored-layer walk for the same queries. *)
  let answer_ranges req k =
    timed Spans.catalog_answer req (fun () -> Cat.answer_into svc ~n:k ~names ~a:qa ~b:qb ~out);
    timed Spans.stored_range req (fun () ->
        for i = 0 to k - 1 do
          St.selectivity_into (range_summary tbl names.(i)) ~pos:i ~len:1 ~a:qa ~b:qb ~out:sout
        done);
    range_queries := !range_queries + k
  in
  let ok what = function Ok v -> v | Error msg -> failwith (Printf.sprintf "replay: %s: %s" what msg) in
  let count = ref 0 in
  Array.iteri
    (fun req request ->
      if now () < deadline_ns then begin
        incr count;
        let bytes = Bytes.of_string (Wire.encode_request request) in
        let len = Bytes.length bytes in
        Spans.enter spans ~name:Spans.replay_request ~req (now ());
        let incoming =
          timed Spans.wire_decode req (fun () -> Wire.decode_request_scratch bytes ~len scratch)
        in
        let response =
          match ok "decode" incoming with
          | Wire.Fast_estimate ->
            names.(0) <- scratch.Wire.s_entry;
            qa.(0) <- scratch.Wire.s_q.Wire.sa;
            qb.(0) <- scratch.Wire.s_q.Wire.sb;
            answer_ranges req 1;
            Wire.Estimate_reply out.(0)
          | Wire.Decoded (Wire.Batch_estimate triples) ->
            Array.iteri
              (fun i (name, a, b) ->
                names.(i) <- name;
                qa.(i) <- a;
                qb.(i) <- b)
              triples;
            let k = Array.length triples in
            answer_ranges req k;
            Wire.Batch_reply (Array.sub out 0 k)
          | Wire.Decoded (Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi }) ->
            let v =
              timed Spans.catalog_answer_rect req (fun () ->
                  Cat.answer_rect svc ~name:entry ~x_lo ~x_hi ~y_lo ~y_hi)
            in
            (match Hashtbl.find_opt tbl entry with
            | Some (St.Rect r) ->
              timed Spans.stored_rect req (fun () -> ignore (St.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi))
            | _ -> failwith "replay: no rect summary");
            Wire.Estimate_reply (ok entry v)
          | Wire.Decoded (Wire.Estimate_join { entry; pred }) ->
            let v = timed Spans.catalog_answer_join req (fun () -> Cat.answer_join svc ~name:entry ~pred) in
            (match Hashtbl.find_opt tbl entry with
            | Some (St.Join j) -> timed Spans.stored_join req (fun () -> ignore (St.join_estimate j ~pred))
            | _ -> failwith "replay: no join summary");
            Wire.Estimate_reply (ok entry v)
          | Wire.Decoded (Wire.Insert { entry; values }) ->
            let sampled, seen = ok entry (timed Spans.catalog_insert req (fun () -> Cat.insert svc ~name:entry values)) in
            Wire.Inserted { sampled; seen }
          | Wire.Decoded (Wire.Observe { entry; a; b; actual }) ->
            Wire.Observed (ok entry (timed Spans.catalog_observe req (fun () -> Cat.observe svc ~name:entry ~a ~b ~actual)))
          | Wire.Decoded r -> failwith ("replay: unexpected request " ^ Wire.request_to_string r)
        in
        if adaptive then begin
          let t0 = now () in
          let k = Cat.adaptive_tick svc in
          let t1 = now () in
          Spans.span spans ~name:Spans.catalog_tick ~req t0 t1;
          if k > 0 then begin
            swaps := !swaps + k;
            swap_ticks := (t1 - t0) :: !swap_ticks
          end
        end;
        timed Spans.wire_encode_reply req (fun () ->
            Buffer.clear reply;
            Wire.encode_response_into reply response);
        Spans.leave spans (now ())
      end)
    requests;
  (* Land the in-flight rebuild, as the engine does on its way out. *)
  if adaptive then Cat.adaptive_drain svc;
  {
    requests = !count;
    range_queries = !range_queries;
    swaps = !swaps;
    swap_tick_ns = !swap_ticks;
  }

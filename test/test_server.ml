(* The network serving layer: wire-protocol round trips and totality,
   engine request/reply semantics over real sockets, backpressure and
   deadline error channels, 32-connection load-generator bit-identity,
   and the SIGTERM kill-and-reconnect drain contract. *)

module Wire = Server.Wire
module Engine = Server.Engine
module Client = Server.Client
module Loadgen = Server.Loadgen
module Service = Catalog.Service

let check = Alcotest.check

let fresh_dir () =
  let base = Filename.temp_file "selest_server_test" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  base

let sock_path () =
  let p = Filename.temp_file "selest_srv" ".sock" in
  Sys.remove p;
  p

let or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let or_fail_client = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected client error: %s" (Client.error_to_string e)

let sample_a = Array.init 500 (fun i -> float_of_int (i * i mod 97))
let sample_b = Array.init 400 (fun i -> float_of_int (i mod 61))
let domain_a = (-0.5, 96.5)
let domain_b = (-0.5, 60.5)

let build_two svc =
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  ignore
    (or_fail
       (Service.build svc ~name:"users/age" ~spec:"sampling" ~domain:domain_b
          ~sample:sample_b))

(* Run [f client address] against a freshly built two-entry catalog served
   on a Unix socket; always drains the server afterwards. *)
let with_server ?config f =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ?config ~service:svc address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client address dir))

(* ---------------- Wire: generators ---------------- *)

(* Floats are drawn from raw bit patterns so NaNs, infinities and negative
   zero must survive the trip; equality is bit-level throughout. *)
let gen_float = QCheck.Gen.(map Int64.float_of_bits int64)
let gen_str = QCheck.Gen.(string_size (int_bound 30))

let gen_request =
  let open QCheck.Gen in
  frequency
    [
      (1, return Wire.Ping);
      (1, return Wire.Ls);
      ( 3,
        gen_str >>= fun entry ->
        gen_float >>= fun a ->
        gen_float >>= fun b ->
        gen_str >>= fun spec -> return (Wire.Estimate { entry; a; b; spec }) );
      ( 3,
        list_size (int_bound 16) (triple gen_str gen_float gen_float) >>= fun l ->
        return (Wire.Batch_estimate (Array.of_list l)) );
      (1, gen_str >>= fun s -> return (Wire.Invalidate s));
      ( 2,
        gen_str >>= fun entry ->
        list_size (int_bound 16) gen_float >>= fun l ->
        return (Wire.Insert { entry; values = Array.of_list l }) );
      ( 2,
        gen_str >>= fun entry ->
        gen_float >>= fun a ->
        gen_float >>= fun b ->
        gen_float >>= fun actual -> return (Wire.Observe { entry; a; b; actual }) );
      ( 2,
        gen_str >>= fun entry ->
        gen_float >>= fun x_lo ->
        gen_float >>= fun x_hi ->
        gen_float >>= fun y_lo ->
        gen_float >>= fun y_hi ->
        return (Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi }) );
      ( 2,
        gen_str >>= fun entry ->
        oneofl [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ]
        >>= fun pred -> return (Wire.Estimate_join { entry; pred }) );
    ]

let gen_entry_info =
  let open QCheck.Gen in
  gen_str >>= fun name ->
  gen_str >>= fun spec ->
  int_bound 100000 >>= fun cells ->
  bool >>= fun stale ->
  gen_float >>= fun lo ->
  gen_float >>= fun hi ->
  oneofl [ Selest.Stored.Range_kind; Selest.Stored.Rect_kind; Selest.Stored.Join_kind ]
  >>= fun kind ->
  oneof
    [
      return None;
      (gen_float >>= fun ylo -> gen_float >>= fun yhi -> return (Some (ylo, yhi)));
    ]
  >>= fun domain_y ->
  return { Wire.name; spec; cells; stale; domain = (lo, hi); kind; domain_y }

let gen_error_code =
  QCheck.Gen.oneofl
    [
      Wire.Bad_request; Wire.Unknown_entry; Wire.Spec_mismatch; Wire.Overloaded;
      Wire.Timeout; Wire.Draining; Wire.Internal;
    ]

let gen_response =
  let open QCheck.Gen in
  frequency
    [
      (1, return Wire.Pong);
      (2, list_size (int_bound 8) gen_entry_info >>= fun l -> return (Wire.Ls_reply l));
      (3, gen_float >>= fun x -> return (Wire.Estimate_reply x));
      ( 3,
        list_size (int_bound 16) gen_float >>= fun l ->
        return (Wire.Batch_reply (Array.of_list l)) );
      (1, return Wire.Invalidated);
      ( 2,
        int_bound 100000 >>= fun sampled ->
        int_bound 1000000 >>= fun seen -> return (Wire.Inserted { sampled; seen }) );
      (2, gen_float >>= fun x -> return (Wire.Observed x));
      ( 2,
        gen_error_code >>= fun code ->
        gen_str >>= fun message -> return (Wire.Error_reply { code; message }) );
    ]

let request_arb = QCheck.make gen_request ~print:Wire.request_to_string
let response_arb = QCheck.make gen_response ~print:Wire.response_to_string

let qcheck_request_round_trip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode round trip (bit-level)"
    request_arb (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' -> Wire.equal_request req req'
      | Error _ -> false)

let qcheck_response_round_trip =
  QCheck.Test.make ~count:500 ~name:"response encode/decode round trip (bit-level)"
    response_arb (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' -> Wire.equal_response resp resp'
      | Error _ -> false)

let qcheck_decode_total =
  QCheck.Test.make ~count:1000 ~name:"decode is total on arbitrary bytes"
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      (* Any outcome is fine; raising is the only failure. *)
      ignore (Wire.decode_request s);
      ignore (Wire.decode_response s);
      true)

let qcheck_truncation_is_error =
  QCheck.Test.make ~count:200 ~name:"every strict prefix of an encoding is an Error"
    request_arb (fun req ->
      let payload = Wire.encode_request req in
      let ok = ref true in
      for len = 0 to String.length payload - 1 do
        match Wire.decode_request (String.sub payload 0 len) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

(* The serving engine reads through [decode_request_scratch]; its
   contract is bit-for-bit agreement with [decode_request] on every
   input — same accept/reject decision, same field values, same error
   message. *)
let scratch_agrees payload =
  let sc = Wire.create_scratch () in
  let buf = Bytes.of_string payload in
  match (Wire.decode_request payload, Wire.decode_request_scratch buf ~len:(Bytes.length buf) sc) with
  | Ok (Wire.Estimate { entry; a; b; spec }), Ok Wire.Fast_estimate ->
    String.equal sc.Wire.s_entry entry
    && String.equal sc.Wire.s_spec spec
    && Int64.bits_of_float sc.Wire.s_q.Wire.sa = Int64.bits_of_float a
    && Int64.bits_of_float sc.Wire.s_q.Wire.sb = Int64.bits_of_float b
  | Ok (Wire.Estimate _), _ -> false
  | Ok req, Ok (Wire.Decoded req') -> Wire.equal_request req req'
  | Error m, Error m' -> String.equal m m'
  | _ -> false

(* Fixed inputs the two decoders once answered differently: an estimate
   cut off inside its second bound, inside its first, and inside its
   spec string. *)
let test_scratch_agrees_on_truncated_estimates () =
  let estimate_prefix = "\x03\x03\x00\x01x" in
  List.iter
    (fun (label, payload, message) ->
      check Alcotest.bool (label ^ ": decoders agree") true (scratch_agrees payload);
      match Wire.decode_request payload with
      | Error m -> check Alcotest.string (label ^ ": message") message m
      | Ok req -> Alcotest.failf "%s decoded to %s" label (Wire.request_to_string req))
    [
      ("inside bound b", estimate_prefix ^ String.make 12 '\x00', "truncated bound b at byte 13");
      ("inside bound a", estimate_prefix ^ String.make 3 '\x00', "truncated bound a at byte 5");
      ( "inside the spec",
        estimate_prefix ^ String.make 16 '\x00' ^ "\x00\x05ab",
        "truncated spec at byte 23" );
    ]

let qcheck_scratch_decode_agrees =
  QCheck.Test.make ~count:500 ~name:"scratch decode agrees with decode_request"
    request_arb (fun req -> scratch_agrees (Wire.encode_request req))

let qcheck_scratch_decode_agrees_on_noise =
  QCheck.Test.make ~count:1000 ~name:"scratch decode agrees on arbitrary bytes"
    QCheck.(string_gen QCheck.Gen.char)
    scratch_agrees

let test_scratch_interning () =
  (* Re-decoding a frame for the same entry must reuse the previous
     string values physically — that reuse is what makes the steady-state
     read path allocation-free (the micro gate's wire.decode row). *)
  let payload =
    Wire.encode_request (Wire.Estimate { entry = "orders/amount"; a = 1.0; b = 2.0; spec = "ewh:16" })
  in
  let buf = Bytes.of_string payload in
  let len = Bytes.length buf in
  let sc = Wire.create_scratch () in
  (match Wire.decode_request_scratch buf ~len sc with
  | Ok Wire.Fast_estimate -> ()
  | _ -> Alcotest.fail "first decode rejected");
  let entry1 = sc.Wire.s_entry and spec1 = sc.Wire.s_spec in
  (match Wire.decode_request_scratch buf ~len sc with
  | Ok Wire.Fast_estimate -> ()
  | _ -> Alcotest.fail "second decode rejected");
  check Alcotest.bool "entry string reused physically" true (sc.Wire.s_entry == entry1);
  check Alcotest.bool "spec string reused physically" true (sc.Wire.s_spec == spec1)

let test_wire_malformed_cases () =
  let expect_error label s =
    match Wire.decode_request s with
    | Error _ -> ()
    | Ok req -> Alcotest.failf "%s decoded to %s" label (Wire.request_to_string req)
  in
  expect_error "empty payload" "";
  expect_error "version only" "\x03";
  (* Valid ping is version 3, opcode 0x01. *)
  (match Wire.decode_request "\x03\x01" with
  | Ok Wire.Ping -> ()
  | other ->
    Alcotest.failf "ping payload rejected: %s"
      (match other with
      | Ok r -> Wire.request_to_string r
      | Error m -> m));
  expect_error "old protocol version" "\x02\x01";
  expect_error "future protocol version" "\x04\x01";
  expect_error "unknown opcode" "\x03\x7f";
  expect_error "trailing bytes" "\x03\x01\x00";
  (* Batch count far beyond what the frame could carry. *)
  expect_error "implausible array count" "\x03\x04\xff\xff\xff\xff";
  (* Insert value count far beyond what the frame could carry. *)
  expect_error "implausible insert count" "\x03\x06\x00\x00\xff\xff\xff\xff";
  (* String length past the end of the payload. *)
  expect_error "truncated string" "\x03\x05\x00\x10ab";
  (* Rect frame cut off inside its fourth coordinate. *)
  expect_error "truncated rect"
    "\x03\x08\x00\x01a\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
  (* Join frame with an out-of-range predicate code. *)
  expect_error "unknown join predicate" "\x03\x09\x00\x01a\x07"

(* ---------------- Engine + Client ---------------- *)

let test_basic_requests () =
  with_server (fun client _address dir ->
      or_fail_client (Client.ping client);
      let entries = or_fail_client (Client.ls client) in
      check (Alcotest.list Alcotest.string) "ls names" [ "orders/amount"; "users/age" ]
        (List.map (fun (e : Wire.entry_info) -> e.Wire.name) entries);
      check (Alcotest.list Alcotest.string) "ls specs" [ "ewh:16"; "sampling" ]
        (List.map (fun (e : Wire.entry_info) -> e.Wire.spec) entries);
      (* Served estimates are bit-identical to direct Service.answer. *)
      let direct_svc, _ = Service.open_dir dir in
      let requests =
        [| ("orders/amount", 3.0, 40.0); ("users/age", 0.0, 30.5); ("users/age", 59.0, 60.0) |]
      in
      let direct = Service.answer direct_svc requests in
      Array.iteri
        (fun i (entry, a, b) ->
          let served = or_fail_client (Client.estimate client ~entry ~a ~b) in
          check Alcotest.bool
            (Printf.sprintf "estimate %d bit-identical" i)
            true
            (Int64.bits_of_float served = Int64.bits_of_float direct.(i)))
        requests;
      let batch = or_fail_client (Client.batch_estimate client requests) in
      check Alcotest.bool "batch bit-identical" true
        (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) batch direct);
      (* Typed errors for bad addressing. *)
      (match Client.estimate client ~entry:"nope" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
      | other ->
        Alcotest.failf "unknown entry: %s"
          (match other with
          | Ok v -> Printf.sprintf "Ok %g" v
          | Error e -> Client.error_to_string e));
      (match Client.estimate ~spec:"sampling" client ~entry:"orders/amount" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Spec_mismatch, _)) -> ()
      | _ -> Alcotest.fail "spec pin did not trip");
      let pinned =
        or_fail_client (Client.estimate ~spec:"ewh:16" client ~entry:"orders/amount" ~a:0.0 ~b:1.0)
      in
      check Alcotest.bool "matching spec pin answers" true (Float.is_finite pinned);
      (* Invalidate round-trips and shows in ls. *)
      or_fail_client (Client.invalidate client "users/age");
      let entries = or_fail_client (Client.ls client) in
      check Alcotest.bool "invalidate marks stale" true
        (List.exists (fun (e : Wire.entry_info) -> e.Wire.name = "users/age" && e.Wire.stale) entries);
      (match Client.invalidate client "ghost" with
      | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
      | _ -> Alcotest.fail "invalidate of unknown entry not typed");
      (* Adaptive ops against a non-adaptive server are typed refusals,
         not protocol errors. *)
      (match Client.insert client ~entry:"users/age" [| 30.0 |] with
      | Error (Client.Server (Wire.Bad_request, _)) -> ()
      | Ok _ -> Alcotest.fail "insert accepted by a non-adaptive server"
      | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
      match Client.observe client ~entry:"users/age" ~a:0.0 ~b:30.0 ~actual:0.5 with
      | Error (Client.Server (Wire.Bad_request, _)) -> ()
      | Ok _ -> Alcotest.fail "observe accepted by a non-adaptive server"
      | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e))

let test_tcp_round_trip () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let engine = Engine.create ~service:svc (Wire.Tcp { host = "127.0.0.1"; port = 0 }) in
  let port = Option.get (Engine.bound_port engine) in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client =
        or_fail_client (Client.connect (Wire.Tcp { host = "127.0.0.1"; port }))
      in
      let x = or_fail_client (Client.estimate client ~entry:"users/age" ~a:0.0 ~b:30.5) in
      let direct_svc, _ = Service.open_dir dir in
      let direct = Service.answer direct_svc [| ("users/age", 0.0, 30.5) |] in
      check Alcotest.bool "tcp estimate bit-identical" true
        (Int64.bits_of_float x = Int64.bits_of_float direct.(0));
      Client.close client)

let test_malformed_payload_keeps_connection () =
  with_server (fun client address _dir ->
      ignore client;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Wire.sockaddr_of_address address);
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A well-framed but malformed payload: typed bad_request, and the
             connection keeps serving. *)
          let r = Wire.create_reader () in
          let read_reply () =
            match Wire.read_frame_into r fd with
            | len when len >= 0 ->
              Wire.decode_response (Bytes.sub_string (Wire.reader_buffer r) 0 len)
            | _ -> Error "no reply frame"
          in
          let frame = "\x00\x00\x00\x02\x01\x7f" in
          ignore (Unix.write_substring fd frame 0 (String.length frame));
          (match read_reply () with
          | Ok (Wire.Error_reply { code = Wire.Bad_request; _ }) -> ()
          | Ok other ->
            Alcotest.failf "expected bad_request, got %s" (Wire.response_to_string other)
          | Error m -> Alcotest.failf "no reply to malformed payload: %s" m);
          Wire.write_request (Wire.create_writer ()) fd Wire.Ping;
          match read_reply () with
          | Ok Wire.Pong -> ()
          | _ -> Alcotest.fail "connection did not survive a malformed payload"))

(* Regression: an empty batch is a legal frame; it must answer an empty
   reply immediately (it once enqueued a zero-length job the dispatcher
   never completed, parking the connection forever and leaking its
   admission slot) and leave the connection serving. *)
let test_empty_batch () =
  with_server
    ~config:{ Engine.default_config with Engine.max_inflight = 1 }
    (fun client _address dir ->
      let answers = or_fail_client (Client.batch_estimate client [||]) in
      check Alcotest.int "empty batch answers empty" 0 (Array.length answers);
      (* No admission slot leaked: with max_inflight = 1 a real query
         still runs, and it answers bit-identically. *)
      let direct_svc, _ = Service.open_dir dir in
      let direct = Service.answer direct_svc [| ("users/age", 0.0, 30.5) |] in
      let x = or_fail_client (Client.estimate client ~entry:"users/age" ~a:0.0 ~b:30.5) in
      check Alcotest.bool "connection still serves, bit-identical" true
        (Int64.bits_of_float x = Int64.bits_of_float direct.(0)))

let test_overload_backpressure () =
  (* max_inflight = 0: admission control refuses every catalog-bound
     request with the typed reply, while ping still answers. *)
  with_server
    ~config:{ Engine.default_config with Engine.max_inflight = 0 }
    (fun client _address _dir ->
      or_fail_client (Client.ping client);
      match Client.estimate client ~entry:"users/age" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Overloaded, _)) -> ()
      | Ok _ -> Alcotest.fail "estimate admitted past max_inflight=0"
      | Error e -> Alcotest.failf "expected overloaded, got %s" (Client.error_to_string e))

let test_deadline_timeout () =
  (* The dispatcher pauses longer than the deadline, so the request is
     expired (typed) instead of evaluated. *)
  with_server
    ~config:
      { Engine.default_config with Engine.deadline_s = 0.05; dispatch_delay_s = 0.2 }
    (fun client _address _dir ->
      match Client.estimate client ~entry:"users/age" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Timeout, _)) -> ()
      | Ok _ -> Alcotest.fail "request evaluated past its deadline"
      | Error e -> Alcotest.failf "expected timeout, got %s" (Client.error_to_string e))

let test_loadgen_32_connections () =
  with_server (fun client address dir ->
      let entries = or_fail_client (Client.ls client) in
      let requests = Loadgen.synthetic_requests ~entries ~count:640 ~seed:11L in
      let report = Loadgen.run ~connections:32 ~address requests in
      let s = report.Loadgen.summary in
      check Alcotest.int "32 connections" 32 report.Loadgen.connections;
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors" []
        s.Loadgen.errors;
      check Alcotest.int "every query answered" 640 s.Loadgen.ok;
      check Alcotest.bool "percentiles ordered" true
        (s.Loadgen.p50_ms <= s.Loadgen.p95_ms
        && s.Loadgen.p95_ms <= s.Loadgen.p99_ms
        && s.Loadgen.p99_ms <= s.Loadgen.max_ms);
      check Alcotest.bool "throughput positive" true (report.Loadgen.throughput_qps > 0.0);
      check (Alcotest.list Alcotest.string) "one range group" [ "range" ]
        (List.map fst s.Loadgen.groups);
      (* Acceptance gate: every served answer bit-identical to a direct
         Catalog.Service.answer on the same snapshot dir, whatever the
         interleaving and batching across 32 connections. *)
      let direct_svc, _ = Service.open_dir dir in
      check (Alcotest.pair Alcotest.int Alcotest.int) "singles verified" (640, 0)
        (Loadgen.verify direct_svc requests report);
      (* Batched frames hit the same answers. *)
      let batched = Loadgen.run ~batch:8 ~connections:32 ~address requests in
      check Alcotest.int "batched all answered" 640 batched.Loadgen.summary.Loadgen.ok;
      check (Alcotest.pair Alcotest.int Alcotest.int) "batched verified" (640, 0)
        (Loadgen.verify direct_svc requests batched);
      (* The check has teeth: one flipped bit is a mismatch. *)
      (match batched.Loadgen.replies.(0) with
      | Some (Wire.Estimate_reply v) ->
        batched.Loadgen.replies.(0) <-
          Some (Wire.Estimate_reply (Int64.float_of_bits (Int64.logxor 1L (Int64.bits_of_float v))))
      | _ -> Alcotest.fail "batched reply 0 is not an estimate");
      check (Alcotest.pair Alcotest.int Alcotest.int) "a flipped bit is caught" (640, 1)
        (Loadgen.verify direct_svc requests batched))

(* Satellite: kill-and-reconnect.  Loadgen traffic is in flight when
   SIGTERM lands; the drain must answer everything already admitted,
   refuse later requests with the typed draining reply, refuse new
   connects once the listener closes, and a restarted server over the
   same snapshot dir must serve bit-identical answers. *)
let test_sigterm_drain_and_reconnect () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let path = sock_path () in
  let address = Wire.Unix_socket path in
  let config =
    (* Slow dispatch so requests are verifiably mid-flight at SIGTERM. *)
    { Engine.default_config with Engine.dispatch_delay_s = 0.15; tick_s = 0.005 }
  in
  let engine = Engine.create ~config ~service:svc address in
  Engine.install_sigterm engine;
  let server = Thread.create Engine.serve engine in
  let probe = ("users/age", 0.0, 30.5) in
  let in_flight = ref (Error (Client.Protocol "never ran")) in
  let client_a = or_fail_client (Client.connect address) in
  let client_b = or_fail_client (Client.connect address) in
  (* Background loadgen traffic during the kill. *)
  let traffic_requests =
    Array.init 64 (fun i ->
        Wire.Estimate
          { entry = "orders/amount"; a = 1.0 +. float_of_int (i mod 13); b = 50.0; spec = "" })
  in
  let traffic = ref None in
  let traffic_thread =
    Thread.create
      (fun () -> traffic := Some (Loadgen.run ~connections:4 ~address traffic_requests))
      ()
  in
  let flight_thread =
    Thread.create
      (fun () ->
        let entry, a, b = probe in
        in_flight := Client.estimate client_a ~entry ~a ~b)
      ()
  in
  Thread.delay 0.05;
  (* SIGTERM mid-flight, through the real signal path. *)
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.delay 0.05;
  check Alcotest.bool "drain initiated by SIGTERM" true (Engine.draining engine);
  (* Requests arriving during the drain get the typed refusal. *)
  (match Client.estimate client_b ~entry:"users/age" ~a:0.0 ~b:1.0 with
  | Error (Client.Server (Wire.Draining, _)) -> ()
  | Ok _ -> Alcotest.fail "request admitted during drain"
  | Error e -> Alcotest.failf "expected draining, got %s" (Client.error_to_string e));
  Thread.join flight_thread;
  Thread.join traffic_thread;
  Thread.join server;
  (* The in-flight request drained to a real answer, not an error. *)
  let direct_svc, _ = Service.open_dir dir in
  let expected = Service.answer direct_svc [| probe |] in
  (match !in_flight with
  | Ok x ->
    check Alcotest.bool "in-flight answer bit-identical" true
      (Int64.bits_of_float x = Int64.bits_of_float expected.(0))
  | Error e -> Alcotest.failf "in-flight request not drained: %s" (Client.error_to_string e));
  (* Traffic answered before the drain is bit-identical; later queries
     failed with the typed draining class only. *)
  (match !traffic with
  | None -> Alcotest.fail "loadgen traffic never finished"
  | Some r ->
    check Alcotest.int "traffic answers bit-identical" 0
      (snd (Loadgen.verify direct_svc traffic_requests r));
    List.iter
      (fun (cls, _) ->
        if cls <> "draining" then Alcotest.failf "unexpected traffic error class %s" cls)
      r.Loadgen.summary.Loadgen.errors);
  check Alcotest.int "drained with no protocol errors" 0
    (Engine.stats engine).Engine.protocol_errors;
  (* The socket is gone: new connects are refused. *)
  check Alcotest.bool "socket removed" false (Sys.file_exists path);
  (match
     Client.connect
       ~config:{ Client.default_config with Client.retries = 0; connect_timeout_s = 0.2 }
       address
   with
  | Error (Client.Transport _) -> ()
  | Error e -> Alcotest.failf "expected transport failure, got %s" (Client.error_to_string e)
  | Ok _ -> Alcotest.fail "connected to a drained server");
  Client.close client_a;
  Client.close client_b;
  (* Restart over the same snapshot dir: identical answers. *)
  let svc2, _ = Service.open_dir dir in
  let engine2 = Engine.create ~service:svc2 address in
  let server2 = Thread.create Engine.serve engine2 in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine2;
      Thread.join server2)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      let entry, a, b = probe in
      let x = or_fail_client (Client.estimate client ~entry ~a ~b) in
      check Alcotest.bool "restarted server serves identical answers" true
        (Int64.bits_of_float x = Int64.bits_of_float expected.(0));
      Client.close client)

(* ---------------- adaptive serving ---------------- *)

(* End to end: an adaptive engine accepts insert and observe frames,
   feeds them into the reservoir and the feedback histogram, swaps a rebuilt summary in the
   background, and still drains cleanly.  Typed refusals for bad
   adaptive traffic ride along. *)
let test_adaptive_insert_observe_e2e () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 100 }
      dir
  in
  build_two svc;
  Service.enable_adaptive svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~service:svc address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* Inserts are acknowledged with reservoir accounting. *)
          let values = Array.init 200 (fun i -> float_of_int (i mod 61)) in
          let sampled, seen = or_fail_client (Client.insert client ~entry:"users/age" values) in
          check Alcotest.int "seen counts every offered value" 200 seen;
          check Alcotest.bool "reservoir retained some values" true
            (sampled > 0 && sampled <= 200);
          (* 200 inserts tripped the 100-insert budget: a background
             rebuild must swap in without any manual rebuild call. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            (Engine.stats engine).Engine.swaps = 0 && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.01
          done;
          check Alcotest.bool "background rebuild swapped a summary in" true
            ((Engine.stats engine).Engine.swaps > 0);
          (* The swapped summary still serves sane estimates. *)
          let x = or_fail_client (Client.estimate client ~entry:"users/age" ~a:0.0 ~b:30.5) in
          check Alcotest.bool "estimate after swap in [0,1]" true
            (Float.is_finite x && x >= 0.0 && x <= 1.0);
          (* Observes refine toward the fed-back truth. *)
          let r1 =
            or_fail_client (Client.observe client ~entry:"users/age" ~a:0.0 ~b:30.0 ~actual:0.9)
          in
          let r2 =
            or_fail_client (Client.observe client ~entry:"users/age" ~a:0.0 ~b:30.0 ~actual:0.9)
          in
          check Alcotest.bool "refined estimates in [0,1]" true
            (r1 >= 0.0 && r1 <= 1.0 && r2 >= 0.0 && r2 <= 1.0);
          check Alcotest.bool "repeat observation converges toward actual" true
            (Float.abs (r2 -. 0.9) <= Float.abs (r1 -. 0.9) +. 1e-9);
          (* Typed refusals: unknown entry, non-finite value, actual
             outside [0, 1]. *)
          (match Client.insert client ~entry:"ghost" [| 1.0 |] with
          | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
          | Ok _ -> Alcotest.fail "insert into unknown entry accepted"
          | Error e -> Alcotest.failf "expected unknown_entry, got %s" (Client.error_to_string e));
          (match Client.insert client ~entry:"users/age" [| Float.nan |] with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "non-finite insert accepted"
          | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
          (match Client.observe client ~entry:"users/age" ~a:0.0 ~b:1.0 ~actual:1.5 with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "out-of-range actual accepted"
          | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e))));
  (* The drain above completing with adaptive maintenance enabled (and
     possibly a rebuild in flight) is itself the adaptive-drain
     assertion. *)
  check Alcotest.bool "drained" true (Engine.draining engine)

(* Four connections interleave estimates, batches, inserts and observes
   against one adaptive server, so evaluation, background rebuilds and
   their swaps all contend for the catalog mutex: every estimate stays
   in [0,1], every write is acknowledged, and the drain is clean. *)
let test_adaptive_concurrent_connections () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 50 }
      dir
  in
  build_two svc;
  Service.enable_adaptive
    ~config:{ Service.default_adaptive_config with Service.refresh_after_observes = 8 }
    svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~service:svc address in
  let server = Thread.create Engine.serve engine in
  let failures = Atomic.make [] in
  let fail msg =
    let rec push () =
      let cur = Atomic.get failures in
      if not (Atomic.compare_and_set failures cur (msg :: cur)) then push ()
    in
    push ()
  in
  let in_unit x = Float.is_finite x && x >= 0.0 && x <= 1.0 in
  let worker k () =
    match Client.connect address with
    | Error e -> fail ("connect: " ^ Client.error_to_string e)
    | Ok client ->
      let entry = if k mod 2 = 0 then "orders/amount" else "users/age" in
      for i = 0 to 59 do
        let a = float_of_int (((i * 7) + k) mod 40) in
        let b = a +. 15.0 in
        match i mod 4 with
        | 0 -> (
          match Client.estimate client ~entry ~a ~b with
          | Ok x when in_unit x -> ()
          | Ok x -> fail (Printf.sprintf "estimate %h outside [0,1]" x)
          | Error e -> fail ("estimate: " ^ Client.error_to_string e))
        | 1 -> (
          match Client.batch_estimate client [| (entry, a, b); ("users/age", 0.0, b) |] with
          | Ok xs when Array.length xs = 2 && Array.for_all in_unit xs -> ()
          | Ok _ -> fail "batch answer outside [0,1]"
          | Error e -> fail ("batch: " ^ Client.error_to_string e))
        | 2 -> (
          let values = Array.init 10 (fun j -> float_of_int ((i + j) mod 60)) in
          match Client.insert client ~entry values with
          | Ok (sampled, seen) when sampled > 0 && seen >= 10 -> ()
          | Ok (sampled, seen) ->
            fail (Printf.sprintf "insert acknowledged with %d sampled of %d seen" sampled seen)
          | Error e -> fail ("insert: " ^ Client.error_to_string e))
        | _ -> (
          match Client.observe client ~entry ~a ~b ~actual:0.25 with
          | Ok x when in_unit x -> ()
          | Ok x -> fail (Printf.sprintf "observe refined to %h" x)
          | Error e -> fail ("observe: " ^ Client.error_to_string e))
      done;
      Client.close client
  in
  let threads = List.init 4 (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join threads;
  Engine.initiate_drain engine;
  Thread.join server;
  check (Alcotest.list Alcotest.string) "every reply in [0,1] or acknowledged" []
    (Atomic.get failures);
  let s = Engine.stats engine in
  check Alcotest.int "no protocol errors" 0 s.Engine.protocol_errors;
  check Alcotest.int "nothing refused" 0
    (s.Engine.overloaded + s.Engine.timeouts + s.Engine.refused_draining);
  check Alcotest.bool "summaries swapped under load" true (s.Engine.swaps > 0);
  (* A clean drain persisted everything: the directory reopens whole. *)
  let reopened, skipped = Service.open_dir dir in
  check Alcotest.int "reopen skips nothing" 0 (List.length skipped);
  check (Alcotest.list Alcotest.string) "entries survive" [ "orders/amount"; "users/age" ]
    (Service.names reopened)

(* ---------------- rect and join serving ---------------- *)

let rect_points =
  Array.init 600 (fun i ->
      (float_of_int (i * 7 mod 97), float_of_int (i * i mod 61)))

let join_r = Array.init 300 (fun i -> float_of_int (i * 5 mod 89))
let join_s = Array.init 250 (fun i -> float_of_int (i * 11 mod 89))

(* One entry of each kind, so mixed workloads and kind-mismatch errors
   are exercised against the same catalog. *)
let build_three_kinds svc =
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  ignore
    (or_fail
       (Service.build_rect svc ~name:"orders/amount_x_qty" ~spec:"hist2d:16"
          ~domain_x:(-0.5, 96.5) ~domain_y:(-0.5, 60.5) ~points:rect_points));
  ignore
    (or_fail
       (Service.build_join svc ~name:"orders_join_users" ~spec:"edh:24"
          ~domain:(-0.5, 88.5) ~n_r:3000 ~n_s:2500 ~sample_r:join_r
          ~sample_s:join_s))

(* Tentpole acceptance: served rectangle and join answers are
   bit-identical to the direct Catalog.Service calls (which are aliases
   of Multidim.Hist2d.selectivity / Join.Ineqjoin.estimate), kind
   mismatches are typed Bad_request, unknown entries typed
   Unknown_entry, and ls reports kind and domain_y. *)
let test_rect_join_requests () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_three_kinds svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~service:svc address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let direct_svc, _ = Service.open_dir dir in
          (* Rectangles, including a degenerate zero-width one. *)
          List.iter
            (fun (x_lo, x_hi, y_lo, y_hi) ->
              let served =
                or_fail_client
                  (Client.estimate_rect client ~entry:"orders/amount_x_qty" ~x_lo
                     ~x_hi ~y_lo ~y_hi)
              in
              let direct =
                or_fail
                  (Service.answer_rect direct_svc ~name:"orders/amount_x_qty"
                     ~x_lo ~x_hi ~y_lo ~y_hi)
              in
              check Alcotest.bool
                (Printf.sprintf "rect [%g,%g]x[%g,%g] bit-identical" x_lo x_hi
                   y_lo y_hi)
                true
                (Int64.bits_of_float served = Int64.bits_of_float direct))
            [
              (3.0, 40.0, 5.0, 30.0);
              (0.0, 96.0, 0.0, 60.0);
              (17.0, 17.0, 4.0, 4.0);
              (50.0, 10.0, 0.0, 60.0);
            ];
          (* Joins under all three predicates. *)
          List.iter
            (fun pred ->
              let served =
                or_fail_client
                  (Client.estimate_join client ~entry:"orders_join_users" ~pred)
              in
              let direct =
                or_fail
                  (Service.answer_join direct_svc ~name:"orders_join_users" ~pred)
              in
              check Alcotest.bool
                (Selest.Stored.join_pred_to_string pred ^ " join bit-identical")
                true
                (Int64.bits_of_float served = Int64.bits_of_float direct))
            [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ];
          (* Kind mismatches are typed Bad_request, not Unknown_entry. *)
          (match
             Client.estimate_rect client ~entry:"orders/amount" ~x_lo:0.0
               ~x_hi:1.0 ~y_lo:0.0 ~y_hi:1.0
           with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "rect query answered by a range entry"
          | Error e ->
            Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
          (match
             Client.estimate_join client ~entry:"orders/amount_x_qty"
               ~pred:Selest.Stored.Join_eq
           with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "join query answered by a rect entry"
          | Error e ->
            Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
          (* So are range queries against the rect and join entries,
             single or batched. *)
          List.iter
            (fun entry ->
              let expect_bad_request what = function
                | Error (Client.Server (Wire.Bad_request, _)) -> ()
                | Ok _ -> Alcotest.failf "%s answered by %s" what entry
                | Error e ->
                  Alcotest.failf "%s against %s: expected bad_request, got %s" what entry
                    (Client.error_to_string e)
              in
              expect_bad_request "estimate"
                (Result.map ignore (Client.estimate client ~entry ~a:0.0 ~b:1.0));
              expect_bad_request "batch_estimate"
                (Result.map ignore
                   (Client.batch_estimate client
                      [| ("orders/amount", 0.0, 1.0); (entry, 0.0, 1.0) |])))
            [ "orders/amount_x_qty"; "orders_join_users" ];
          (match
             Client.estimate_rect client ~entry:"ghost" ~x_lo:0.0 ~x_hi:1.0
               ~y_lo:0.0 ~y_hi:1.0
           with
          | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
          | Ok _ -> Alcotest.fail "rect query against unknown entry answered"
          | Error e ->
            Alcotest.failf "expected unknown_entry, got %s" (Client.error_to_string e));
          (match
             Client.estimate_join client ~entry:"ghost" ~pred:Selest.Stored.Join_lt
           with
          | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
          | Ok _ -> Alcotest.fail "join query against unknown entry answered"
          | Error e ->
            Alcotest.failf "expected unknown_entry, got %s" (Client.error_to_string e));
          (* Ls reports the kinds and the rect y-domain. *)
          let entries = or_fail_client (Client.ls client) in
          let find n = List.find (fun (e : Wire.entry_info) -> e.Wire.name = n) entries in
          check Alcotest.bool "range kind" true
            ((find "orders/amount").Wire.kind = Selest.Stored.Range_kind);
          check Alcotest.bool "rect kind" true
            ((find "orders/amount_x_qty").Wire.kind = Selest.Stored.Rect_kind);
          check Alcotest.bool "join kind" true
            ((find "orders_join_users").Wire.kind = Selest.Stored.Join_kind);
          check Alcotest.bool "rect entry carries domain_y" true
            ((find "orders/amount_x_qty").Wire.domain_y = Some (-0.5, 60.5));
          check Alcotest.bool "range entry has no domain_y" true
            ((find "orders/amount").Wire.domain_y = None)))

(* A mixed range/rect/join workload over eight connections answers
   bit-identically to the direct Catalog.Service call of each kind, and
   the run reports per-kind latency groups. *)
let test_mixed_bit_identity () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_three_kinds svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~service:svc address in
  let server = Thread.create Engine.serve engine in
  let requests, r =
    Fun.protect
      ~finally:(fun () ->
        Engine.initiate_drain engine;
        Thread.join server)
      (fun () ->
        let client = or_fail_client (Client.connect address) in
        let entries = or_fail_client (Client.ls client) in
        Client.close client;
        let requests = Loadgen.synthetic_requests ~entries ~count:240 ~seed:17L in
        (requests, Loadgen.run ~connections:8 ~address requests))
  in
  check Alcotest.bool "workload mixes all three kinds" true
    (List.sort_uniq compare (Array.to_list (Array.map Loadgen.request_kind requests))
    = [ "join"; "range"; "rect" ]);
  let s = r.Loadgen.summary in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors" []
    s.Loadgen.errors;
  check Alcotest.int "all answered" 240 s.Loadgen.ok;
  let direct_svc, _ = Service.open_dir dir in
  check (Alcotest.pair Alcotest.int Alcotest.int) "every kind bit-identical" (240, 0)
    (Loadgen.verify direct_svc requests r);
  (* Per-kind latency groups are always reported. *)
  check (Alcotest.list Alcotest.string) "per-kind groups reported" [ "join"; "range"; "rect" ]
    (List.map fst s.Loadgen.groups);
  List.iter
    (fun (_, g) -> check Alcotest.bool "group populated" true (g.Loadgen.g_n > 0))
    s.Loadgen.groups

(* Open-loop generator sanity: the arrival schedule is honored (offered
   ~= rate * duration), accounting is consistent, and at a tame rate
   everything is answered. *)
let test_open_loop_smoke () =
  with_server (fun client address _dir ->
      let entries = or_fail_client (Client.ls client) in
      let requests = Loadgen.synthetic_requests ~entries ~count:64 ~seed:5L in
      let r = Loadgen.run_open_loop ~max_clients:8 ~rate:200.0 ~duration_s:0.5 ~address requests in
      check Alcotest.bool "offered matches the schedule" true
        (r.Loadgen.offered >= 90 && r.Loadgen.offered <= 110);
      check Alcotest.int "sent + dropped = offered" r.Loadgen.offered
        (r.Loadgen.sent + r.Loadgen.dropped);
      let s = r.Loadgen.o_summary in
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors" []
        s.Loadgen.errors;
      check Alcotest.int "every sent arrival answered" r.Loadgen.sent s.Loadgen.ok;
      check Alcotest.bool "achieved rate positive" true (r.Loadgen.achieved_qps > 0.0);
      check Alcotest.bool "percentiles ordered" true
        (s.Loadgen.p50_ms <= s.Loadgen.p95_ms
        && s.Loadgen.p95_ms <= s.Loadgen.p99_ms
        && s.Loadgen.p99_ms <= s.Loadgen.max_ms))

(* A range query whose entry is indexed but whose snapshot cannot be
   read is a server-side failure: typed Internal, single or batched. *)
let test_unreadable_snapshot_is_internal () =
  let dir = fresh_dir () in
  (* Capacity 1: building users/age evicts orders/amount, so the next
     query of orders/amount must reload its snapshot. *)
  let svc, _ = Service.open_dir ~config:{ Service.default_config with Service.capacity = 1 } dir in
  build_two svc;
  let oc = open_out_bin (Catalog.Snapshot.path ~dir "orders/amount") in
  output_string oc "garbage";
  close_out oc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~service:svc address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let expect_internal what = function
            | Error (Client.Server (Wire.Internal, _)) -> ()
            | Ok _ -> Alcotest.failf "%s of an unreadable snapshot answered" what
            | Error e ->
              Alcotest.failf "%s: expected internal, got %s" what (Client.error_to_string e)
          in
          expect_internal "estimate"
            (Result.map ignore (Client.estimate client ~entry:"orders/amount" ~a:0.0 ~b:1.0));
          expect_internal "batch_estimate"
            (Result.map ignore
               (Client.batch_estimate client [| ("orders/amount", 0.0, 1.0) |]))))

(* A reply frame with an oversized header leaves the stream misaligned:
   the client must hang up, so its next request reconnects instead of
   reading the bytes that followed as its reply.  The server here is a
   raw Unix socket that answers the first ping with a bad header and a
   stale pong. *)
let test_client_hangs_up_on_framing_error () =
  let path = sock_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  let pong = "\x00\x00\x00\x02\x03\x81" in
  let read_ping fd =
    let buf = Bytes.create 6 in
    let rec go off =
      if off < 6 then
        match Unix.read fd buf off (6 - off) with
        | 0 -> failwith "peer closed before a full ping"
        | n -> go (off + n)
    in
    go 0;
    check Alcotest.string "a ping frame" "\x00\x00\x00\x02\x03\x01" (Bytes.to_string buf)
  in
  let write fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let second_ping = ref "never arrived" in
  let fake () =
    let c1, _ = Unix.accept lfd in
    read_ping c1;
    write c1 ("\x7f\xff\xff\xff" ^ pong);
    (* Where does the next ping arrive? *)
    let rec await c1_open =
      let watched = if c1_open then [ lfd; c1 ] else [ lfd ] in
      match Unix.select watched [] [] 5.0 with
      | [], _, _ -> ()
      | ready, _, _ when List.mem lfd ready ->
        let c2, _ = Unix.accept lfd in
        read_ping c2;
        write c2 pong;
        second_ping := "second connection";
        Unix.close c2
      | _ -> (
        (* A hangup with our reply unread may surface as a reset. *)
        match Unix.read c1 (Bytes.create 6) 0 6 with
        | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> await false
        | _ -> second_ping := "first connection")
    in
    await true;
    Unix.close c1
  in
  let server = Thread.create fake () in
  let client = Client.create (Wire.Unix_socket path) in
  (match Client.ping client with
  | Error (Client.Protocol _) -> ()
  | Ok () -> Alcotest.fail "ping 1 accepted an oversized reply frame"
  | Error e -> Alcotest.failf "ping 1: expected a protocol error, got %s" (Client.error_to_string e));
  or_fail_client (Client.ping client);
  Thread.join server;
  Client.close client;
  Unix.close lfd;
  Sys.remove path;
  check Alcotest.string "ping 2 reconnected" "second connection" !second_ping

(* The drift generator against an adaptive server whose catalog holds
   all three kinds: it targets the range entry (and refuses the others),
   its accounting is consistent, every write is acknowledged, and the
   inserts trigger at least one background swap. *)
let test_drift_over_three_kinds () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 200 }
      dir
  in
  build_three_kinds svc;
  Service.enable_adaptive svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~service:svc address in
  let server = Thread.create Engine.serve engine in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Engine.initiate_drain engine;
        Thread.join server)
      (fun () ->
        let client = or_fail_client (Client.connect address) in
        let entries = or_fail_client (Client.ls client) in
        Client.close client;
        let is_range (e : Wire.entry_info) = e.Wire.kind = Selest.Stored.Range_kind in
        List.iter
          (fun (e : Wire.entry_info) ->
            if not (is_range e) then
              match
                Loadgen.run_drift ~rate:100.0 ~duration_s:0.1 ~entry:e ~address ()
              with
              | _ -> Alcotest.failf "drift accepted the %s entry" e.Wire.name
              | exception Invalid_argument _ -> ())
          entries;
        let entry = List.find is_range entries in
        check Alcotest.string "targets the range entry" "orders/amount" entry.Wire.name;
        let r =
          Loadgen.run_drift ~max_clients:8 ~rate:400.0 ~duration_s:1.0 ~entry ~address ()
        in
        (* 2 400 inserted values against a 200-insert budget: wait for the
           background rebuild to land. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (Engine.stats engine).Engine.swaps = 0 && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        r)
  in
  let o = r.Loadgen.d_open in
  check Alcotest.int "offered = sent + dropped" o.Loadgen.offered
    (o.Loadgen.sent + o.Loadgen.dropped);
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors" []
    o.Loadgen.o_summary.Loadgen.errors;
  check Alcotest.int "no invalid estimate" 0 r.Loadgen.d_est_invalid;
  check Alcotest.bool "estimates answered" true
    (r.Loadgen.d_est_ok > 0 && r.Loadgen.d_est_ok = r.Loadgen.d_estimates);
  check Alcotest.bool "inserts acknowledged" true
    (r.Loadgen.d_insert_ok > 0 && r.Loadgen.d_insert_ok = r.Loadgen.d_inserts);
  check Alcotest.bool "observes acknowledged" true
    (r.Loadgen.d_observe_ok > 0 && r.Loadgen.d_observe_ok = r.Loadgen.d_observes);
  check Alcotest.bool "at least one swap" true ((Engine.stats engine).Engine.swaps >= 1)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest qcheck_request_round_trip;
          QCheck_alcotest.to_alcotest qcheck_response_round_trip;
          QCheck_alcotest.to_alcotest qcheck_decode_total;
          QCheck_alcotest.to_alcotest qcheck_truncation_is_error;
          QCheck_alcotest.to_alcotest qcheck_scratch_decode_agrees;
          QCheck_alcotest.to_alcotest qcheck_scratch_decode_agrees_on_noise;
          Alcotest.test_case "scratch decode agrees on truncated estimates" `Quick
            test_scratch_agrees_on_truncated_estimates;
          Alcotest.test_case "scratch decode interns repeated strings" `Quick
            test_scratch_interning;
          Alcotest.test_case "malformed payload cases" `Quick test_wire_malformed_cases;
        ] );
      ( "engine",
        [
          Alcotest.test_case "requests, typed errors, bit-identity" `Quick
            test_basic_requests;
          Alcotest.test_case "tcp round trip on an ephemeral port" `Quick
            test_tcp_round_trip;
          Alcotest.test_case "malformed payload keeps the connection" `Quick
            test_malformed_payload_keeps_connection;
          Alcotest.test_case "empty batch answers immediately" `Quick test_empty_batch;
          Alcotest.test_case "admission control backpressure" `Quick
            test_overload_backpressure;
          Alcotest.test_case "deadline expiry is typed" `Quick test_deadline_timeout;
          Alcotest.test_case "unreadable snapshot answers internal" `Quick
            test_unreadable_snapshot_is_internal;
          Alcotest.test_case "client hangs up on a framing error" `Quick
            test_client_hangs_up_on_framing_error;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "32 connections, zero errors, bit-identical" `Quick
            test_loadgen_32_connections;
          Alcotest.test_case "open-loop schedule and accounting" `Quick
            test_open_loop_smoke;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM kill-and-reconnect" `Quick
            test_sigterm_drain_and_reconnect;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "insert/observe end to end, background swap, drain" `Quick
            test_adaptive_insert_observe_e2e;
          Alcotest.test_case "4 connections interleave reads and writes, clean drain"
            `Quick test_adaptive_concurrent_connections;
          Alcotest.test_case "drift over three kinds targets the range entry" `Quick
            test_drift_over_three_kinds;
        ] );
      ( "rect-join",
        [
          Alcotest.test_case "served rect/join bit-identical, typed kind errors"
            `Quick test_rect_join_requests;
          Alcotest.test_case "mixed workload bit-identical to direct calls" `Quick
            test_mixed_bit_identity;
        ] );
    ]

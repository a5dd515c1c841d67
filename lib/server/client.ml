type config = {
  connect_timeout_s : float;
  read_timeout_s : float;
  retries : int;
  backoff_s : float;
  seed : int64;
}

let default_config =
  {
    connect_timeout_s = 1.0;
    read_timeout_s = 5.0;
    retries = 2;
    backoff_s = 0.02;
    seed = 0x5e1ec11e47L;
  }

type error =
  | Transport of string
  | Server of Wire.error_code * string
  | Protocol of string

let error_to_string = function
  | Transport m -> "transport: " ^ m
  | Server (code, m) ->
    Printf.sprintf "server %s: %s" (Wire.error_code_to_string code) m
  | Protocol m -> "protocol: " ^ m

type t = {
  address : Wire.address;
  config : config;
  rng : Prng.Splitmix64.t;
  w : Wire.writer;
  r : Wire.reader;
  mutable fd : Unix.file_descr option;
}

(* Failures worth retrying: the server not being up yet (refused /
   missing socket path), a connection lost between requests, or a
   timeout.  Anything else is reported on the first occurrence. *)
let transient = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT | Unix.ECONNRESET
  | Unix.ECONNABORTED | Unix.EPIPE | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR ->
    true
  | _ -> false

(* Full jitter: sleep a uniform fraction of an exponentially growing
   cap, so a burst of retrying clients decorrelates instead of
   stampeding the recovering server in lockstep. *)
let backoff t attempt =
  let cap = t.config.backoff_s *. Float.of_int (1 lsl min attempt 8) in
  let s = cap *. Prng.Splitmix64.next_float t.rng in
  if s > 0.0 then Thread.delay s

let connect_fd t =
  let sockaddr = Wire.sockaddr_of_address t.address in
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    (try Unix.connect fd sockaddr
     with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> (
       match Unix.select [] [ fd ] [] t.config.connect_timeout_s with
       | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
       | _, _ :: _, _ -> (
         match Unix.getsockopt_error fd with
         | None -> ()
         | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
    Unix.clear_nonblock fd;
    if t.config.read_timeout_s > 0.0 then
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.read_timeout_s
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let disconnect t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let close = disconnect

let ensure_fd t =
  match t.fd with
  | Some fd -> fd
  | None ->
    let fd = connect_fd t in
    t.fd <- Some fd;
    fd

(* One request/response exchange, with bounded reconnect-and-resend on
   transient transport failures.  Safe for estimates (reads), invalidate
   (re-marks) and observe (converging refinement); insert is the one
   at-least-once operation — a resent frame offers its values to the
   reservoir again (see wire.mli). *)
let rpc t req =
  let rec attempt n =
    match
      let fd = ensure_fd t in
      Wire.write_request t.w fd req;
      Wire.read_frame_into t.r fd
    with
    | -1 -> retry n "connection closed by server"
    | -2 ->
      (* The stream is no longer frame-aligned: whatever follows would be
         read as the next reply, so hang up. *)
      disconnect t;
      Error (Protocol (Wire.reader_error t.r))
    | len -> (
      match Wire.decode_response (Bytes.sub_string (Wire.reader_buffer t.r) 0 len) with
      | Ok resp -> Ok resp
      | Error m -> Error (Protocol m))
    | exception Unix.Unix_error (e, fn, _) when transient e ->
      retry n (Printf.sprintf "%s: %s" fn (Unix.error_message e))
    | exception Unix.Unix_error (e, fn, _) ->
      disconnect t;
      Error (Transport (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  and retry n msg =
    disconnect t;
    if n >= t.config.retries then Error (Transport msg)
    else begin
      backoff t n;
      attempt (n + 1)
    end
  in
  attempt 0

let create ?(config = default_config) address =
  Wire.ignore_sigpipe ();
  {
    address;
    config;
    rng = Prng.Splitmix64.create config.seed;
    w = Wire.create_writer ();
    r = Wire.create_reader ();
    fd = None;
  }

let connect ?config address =
  let t = create ?config address in
  match rpc t Wire.Ping with
  | Ok Wire.Pong -> Ok t
  | Ok other ->
    disconnect t;
    Error (Protocol ("expected pong, got " ^ Wire.response_to_string other))
  | Error e ->
    disconnect t;
    Error e

let unexpected resp = Error (Protocol ("unexpected reply " ^ Wire.response_to_string resp))

let ping t =
  match rpc t Wire.Ping with
  | Ok Wire.Pong -> Ok ()
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let ls t =
  match rpc t Wire.Ls with
  | Ok (Wire.Ls_reply entries) -> Ok entries
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let estimate ?(spec = "") t ~entry ~a ~b =
  match rpc t (Wire.Estimate { entry; a; b; spec }) with
  | Ok (Wire.Estimate_reply x) -> Ok x
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let batch_estimate t triples =
  match rpc t (Wire.Batch_estimate triples) with
  | Ok (Wire.Batch_reply xs) ->
    if Array.length xs = Array.length triples then Ok xs
    else
      Error
        (Protocol
           (Printf.sprintf "batch reply carries %d answers for %d queries"
              (Array.length xs) (Array.length triples)))
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let insert t ~entry values =
  match rpc t (Wire.Insert { entry; values }) with
  | Ok (Wire.Inserted { sampled; seen }) -> Ok (sampled, seen)
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let observe t ~entry ~a ~b ~actual =
  match rpc t (Wire.Observe { entry; a; b; actual }) with
  | Ok (Wire.Observed refined) -> Ok refined
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let estimate_rect t ~entry ~x_lo ~x_hi ~y_lo ~y_hi =
  match rpc t (Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi }) with
  | Ok (Wire.Estimate_reply x) -> Ok x
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let estimate_join t ~entry ~pred =
  match rpc t (Wire.Estimate_join { entry; pred }) with
  | Ok (Wire.Estimate_reply x) -> Ok x
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let invalidate t name =
  match rpc t (Wire.Invalidate name) with
  | Ok Wire.Invalidated -> Ok ()
  | Ok (Wire.Error_reply { code; message }) -> Error (Server (code, message))
  | Ok other -> unexpected other
  | Error e -> Error e

let request = rpc

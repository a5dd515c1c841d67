(* One closed-loop client connection with its own framing, so the traced
   run can time the encode, the wait for the reply and the decode of
   every exchange separately. *)

module Wire = Server.Wire

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable frame : Bytes.t;
  reader : Wire.reader;
  mutable bytes : int;  (** request plus reply bytes, frame headers included *)
}

let connect path =
  Wire.ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    { fd; buf = Buffer.create 256; frame = Bytes.create 256; reader = Wire.create_reader (); bytes = 0 }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

(* Frame the encoded request: a 4-byte big-endian length, then the payload. *)
let frame c =
  let len = Buffer.length c.buf in
  if Bytes.length c.frame < 4 + len then c.frame <- Bytes.create (2 * (4 + len));
  Bytes.set_int32_be c.frame 0 (Int32.of_int len);
  Buffer.blit c.buf 0 c.frame 4 len;
  4 + len

(* One exchange.  Returns the reply and the exchange's start and end on
   the monotonic clock.  With [spans], records a [client.exchange] span
   whose children are the encode, the wait (write until the whole reply
   is read) and the decode. *)
let exchange ?spans ~req c request =
  let t0 = Spans.now_ns () in
  Buffer.clear c.buf;
  Wire.encode_request_into c.buf request;
  let len = frame c in
  let t1 = Spans.now_ns () in
  let reply =
    match
      write_all c.fd c.frame 0 len;
      Wire.read_frame_into c.reader c.fd
    with
    | n when n >= 0 ->
      c.bytes <- c.bytes + len + 4 + n;
      Ok n
    | -1 -> Error "server closed the connection"
    | _ -> Error (Wire.reader_error c.reader)
    | exception Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)
  in
  let t2 = Spans.now_ns () in
  let response =
    match reply with
    | Ok n -> Wire.decode_response (Bytes.sub_string (Wire.reader_buffer c.reader) 0 n)
    | Error _ as e -> e
  in
  let t3 = Spans.now_ns () in
  (match spans with
  | None -> ()
  | Some s ->
    Spans.enter s ~name:Spans.client_exchange ~req t0;
    Spans.span s ~name:Spans.client_encode ~req t0 t1;
    Spans.span s ~name:Spans.client_wait ~req t1 t2;
    Spans.span s ~name:Spans.client_decode ~req t2 t3;
    Spans.leave s t3);
  (response, t0, t3)

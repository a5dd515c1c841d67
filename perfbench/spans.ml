(* In-memory span recorder for the traced run.

   One recorder per thread, so recording takes no lock and allocates
   nothing.  Spans nest strictly (each thread does one thing at a time),
   so an explicit stack gives every span its parent and lets the recorder
   keep, per span name, the count, the total duration and the self time
   (duration minus the time its children cover) of every span it closed.
   The raw spans (name, start, end, parent, request id) are kept for the
   first [raw_capacity] spans and written out when the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let names =
  [|
    "client.exchange";
    "client.encode";
    "client.wait";
    "client.decode";
    "replay.request";
    "wire.decode";
    "catalog.answer";
    "catalog.answer_rect";
    "catalog.answer_join";
    "catalog.insert";
    "catalog.observe";
    "catalog.tick";
    "stored.range";
    "stored.rect";
    "stored.join";
    "wire.encode_reply";
  |]

let id name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let client_exchange = id "client.exchange"
let client_encode = id "client.encode"
let client_wait = id "client.wait"
let client_decode = id "client.decode"
let replay_request = id "replay.request"
let wire_decode = id "wire.decode"
let catalog_answer = id "catalog.answer"
let catalog_answer_rect = id "catalog.answer_rect"
let catalog_answer_join = id "catalog.answer_join"
let catalog_insert = id "catalog.insert"
let catalog_observe = id "catalog.observe"
let catalog_tick = id "catalog.tick"
let stored_range = id "stored.range"
let stored_rect = id "stored.rect"
let stored_join = id "stored.join"
let wire_encode_reply = id "wire.encode_reply"
let raw_capacity = 1 lsl 15
let max_depth = 8

type t = {
  (* aggregates, indexed by name id *)
  count : int array;
  total_ns : int array;
  self_ns : int array;
  (* open-span stack *)
  mutable depth : int;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_raw : int array;  (** raw index of the open span, or -1 *)
  (* raw spans, first [raw_capacity] only *)
  mutable raw : int;
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_req : int array;
}

let create () =
  let k = Array.length names in
  {
    count = Array.make k 0;
    total_ns = Array.make k 0;
    self_ns = Array.make k 0;
    depth = 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_raw = Array.make max_depth (-1);
    raw = 0;
    r_name = Array.make raw_capacity 0;
    r_start = Array.make raw_capacity 0;
    r_end = Array.make raw_capacity 0;
    r_parent = Array.make raw_capacity (-1);
    r_req = Array.make raw_capacity 0;
  }

let enter t ~name ~req start =
  let d = t.depth in
  t.st_name.(d) <- name;
  t.st_start.(d) <- start;
  t.st_child.(d) <- 0;
  if t.raw < raw_capacity then begin
    let r = t.raw in
    t.raw <- r + 1;
    t.r_name.(r) <- name;
    t.r_start.(r) <- start;
    t.r_parent.(r) <- (if d = 0 then -1 else t.st_raw.(d - 1));
    t.r_req.(r) <- req;
    t.st_raw.(d) <- r
  end
  else t.st_raw.(d) <- -1;
  t.depth <- d + 1

let leave t stop =
  let d = t.depth - 1 in
  t.depth <- d;
  let name = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  t.count.(name) <- t.count.(name) + 1;
  t.total_ns.(name) <- t.total_ns.(name) + dur;
  t.self_ns.(name) <- t.self_ns.(name) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let r = t.st_raw.(d) in
  if r >= 0 then t.r_end.(r) <- stop

(* A span of known bounds with no children, e.g. a timed call whose start
   and end the caller already read. *)
let span t ~name ~req start stop =
  enter t ~name ~req start;
  leave t stop

let merge ts =
  let k = Array.length names in
  let sum f = Array.init k (fun i -> List.fold_left (fun acc t -> acc + (f t).(i)) 0 ts) in
  (sum (fun t -> t.count), sum (fun t -> t.total_ns), sum (fun t -> t.self_ns))

(* Mean duration of a span name, in ns; nan when it never occurred. *)
let mean_ns ts name =
  let c, tot, _ = merge ts in
  if c.(name) = 0 then Float.nan else float_of_int tot.(name) /. float_of_int c.(name)

let total_ns ts name =
  let _, tot, _ = merge ts in
  tot.(name)

(* One line per span name that occurred: count, mean and self time. *)
let report ts =
  let c, tot, self = merge ts in
  Array.to_list
    (Array.mapi
       (fun i name ->
         if c.(i) = 0 then None
         else
           Some
             (Printf.sprintf "%-20s n=%-8d mean %10.0f ns  self %10.0f ns" name c.(i)
                (float_of_int tot.(i) /. float_of_int c.(i))
                (float_of_int self.(i) /. float_of_int c.(i))))
       names)
  |> List.filter_map Fun.id

(* Tab-separated raw spans: recorder, span, name, start, end, parent,
   request id (times in ns of the monotonic clock). *)
let write path ts =
  let oc = open_out path in
  output_string oc "recorder\tspan\tname\tstart_ns\tend_ns\tparent\trequest\n";
  List.iteri
    (fun k t ->
      for r = 0 to t.raw - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" k r names.(t.r_name.(r)) t.r_start.(r)
          t.r_end.(r) t.r_parent.(r) t.r_req.(r)
      done)
    ts;
  close_out oc

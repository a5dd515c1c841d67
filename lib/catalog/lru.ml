(* Hashtbl + circular doubly-linked list through a sentinel node: O(1)
   find/add/remove, list order is recency (sentinel.next = MRU,
   sentinel.prev = LRU).  The circular representation exists for the
   serving fast path: relinking a node on a hit rewires four non-option
   pointers and allocates nothing, where an option-based list would box a
   [Some] per promotion.  The sentinel is created with the first insert;
   its [value] field keeps that first value as an inert placeholder (one
   value of bounded retention, never returned to a caller). *)

type 'a node = {
  key : string; (* "" for the sentinel *)
  mutable value : 'a;
  mutable prev : 'a node; (* towards MRU *)
  mutable next : 'a node; (* towards LRU *)
}

type stats = { hits : int; misses : int; evictions : int }

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable sentinel : 'a node option; (* None until the first add *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m_hits : Telemetry.Metrics.counter;
  m_misses : Telemetry.Metrics.counter;
  m_evictions : Telemetry.Metrics.counter;
}

let create ?(cache_name = "default") ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  let labels = [ ("cache", cache_name) ] in
  {
    cap = capacity;
    table = Hashtbl.create (2 * capacity);
    sentinel = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    m_hits =
      Telemetry.Metrics.counter "catalog_cache_hits_total" ~labels
        ~help:"Cache lookups answered from a resident entry";
    m_misses =
      Telemetry.Metrics.counter "catalog_cache_misses_total" ~labels
        ~help:"Cache lookups that found no resident entry";
    m_evictions =
      Telemetry.Metrics.counter "catalog_cache_evictions_total" ~labels
        ~help:"Entries dropped to stay within capacity";
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

(* Detach [n] from the recency ring (leaves n.prev/n.next dangling). *)
let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front s n =
  n.next <- s.next;
  n.prev <- s;
  s.next.prev <- n;
  s.next <- n

(* A resident node implies the sentinel exists; this is the only way the
   invariant could break, hence the assert. *)
let sentinel_exn t =
  match t.sentinel with
  | Some s -> s
  | None -> assert false

let promote t n =
  let s = sentinel_exn t in
  if s.next != n then begin
    unlink n;
    push_front s n
  end

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    t.hits <- t.hits + 1;
    Telemetry.Metrics.incr t.m_hits;
    promote t n;
    Some n.value
  | None ->
    t.misses <- t.misses + 1;
    Telemetry.Metrics.incr t.m_misses;
    None

(* Allocation-free twin of [find]: the served estimate path resolves a
   summary per run of a request's batch, and a resident hit must not box an
   option per run.  [Hashtbl.find]'s [Not_found] is a preallocated
   constant, so the miss path allocates nothing either. *)
let find_exn t key =
  match Hashtbl.find t.table key with
  | n ->
    t.hits <- t.hits + 1;
    Telemetry.Metrics.incr t.m_hits;
    promote t n;
    n.value
  | exception Not_found ->
    t.misses <- t.misses + 1;
    Telemetry.Metrics.incr t.m_misses;
    raise Not_found

let peek t key = Option.map (fun n -> n.value) (Hashtbl.find_opt t.table key)

let evict_lru t s =
  let n = s.prev in
  if n != s then begin
    unlink n;
    Hashtbl.remove t.table n.key;
    t.evictions <- t.evictions + 1;
    Telemetry.Metrics.incr t.m_evictions
  end

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    n.value <- value;
    promote t n
  | None ->
    let s =
      match t.sentinel with
      | Some s -> s
      | None ->
        let rec s = { key = ""; value; prev = s; next = s } in
        t.sentinel <- Some s;
        s
    in
    if Hashtbl.length t.table >= t.cap then evict_lru t s;
    let n = { key; value; prev = s; next = s } in
    Hashtbl.replace t.table key n;
    push_front s n

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some n ->
    unlink n;
    Hashtbl.remove t.table key

let keys t =
  match t.sentinel with
  | None -> []
  | Some s ->
    let rec go acc n = if n == s then List.rev acc else go (n.key :: acc) n.next in
    go [] s.next

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

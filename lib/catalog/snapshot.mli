(** On-disk snapshots of catalog entries.

    Every catalog entry persists as one text file inside the catalog
    directory: a versioned [selest-catalog v1] header (name, build spec,
    staleness state) followed by the [Selest.Stored.any] payload, whose
    own header line says whether the entry is a range, rect or join
    summary.  The full format, with a worked example, is documented in
    [docs/CATALOG.md].

    Writes are atomic: the file is written to a [.tmp] sibling and
    renamed into place, so a crash mid-write leaves either the previous
    snapshot or none — never a torn file.  Reads are total: any malformed
    file yields [Error], and {!load_dir} skips (and reports) such files
    instead of failing the whole catalog. *)

type entry = {
  name : string;  (** catalog entry name; must not contain newlines *)
  spec : string;
      (** build spec in the syntax of the entry's kind —
          [Selest.Estimator.spec_of_string] for range summaries,
          [Selest.Stored.rect_spec_of_string] for rect,
          [Selest.Stored.join_spec_of_string] for join (kept so a stale
          entry can be rebuilt) *)
  inserts : int;  (** records inserted since the summary was built *)
  stale : bool;  (** true once invalidated or past the rebuild budget *)
  provenance : string option;
      (** optional free-form audit line recording where the spec came
          from (e.g. the advisor's recommendation string behind
          [catalog build --spec auto]); must not contain newlines.
          Written as an optional [provenance] header line, so snapshots
          without one — including every pre-provenance file — still
          parse, and files saved with [None] are byte-identical to the
          original v1 format *)
  summary : Selest.Stored.any;
      (** the serving payload; its own header line names the kind *)
}

val extension : string
(** [".summary"] — the suffix of every snapshot file. *)

val file_name : string -> string
(** Injective mapping from entry name to snapshot file name: bytes outside
    [[A-Za-z0-9._-]] are percent-encoded, then {!extension} is appended,
    so names like ["n(20)/kernel"] become filesystem-safe. *)

val path : dir:string -> string -> string
(** [path ~dir name] is the snapshot path of [name] inside [dir]. *)

val save : dir:string -> entry -> unit
(** Atomically write (or replace) the entry's snapshot.
    @raise Invalid_argument if the name or spec contains a newline.
    @raise Sys_error on I/O failure. *)

val load : path:string -> (entry, string) result
(** Parse one snapshot file.  [Error] describes the first malformed field
    (unreadable file, wrong magic, bad header, unparseable spec, corrupt
    [Stored] payload) and never raises on malformed content. *)

val tmp_extension : string
(** [".summary.tmp"] — the suffix of in-flight {!save} temp files; one
    left on disk marks a write that died before its rename. *)

val load_dir : dir:string -> unit -> entry list * (string * string) list
(** Scan [dir] for [*{!extension}] files (sorted by file name) and load
    each: returns the entries that parsed alongside [(file, error)] pairs
    for the ones that did not — the skip-and-report recovery contract.
    Orphaned [*{!tmp_extension}] files from writes that died before their
    rename are swept (deleted) first and reported in the same skip list.
    @raise Sys_error if [dir] itself cannot be read. *)

val delete : dir:string -> string -> unit
(** Remove the snapshot of [name] from [dir], if present. *)

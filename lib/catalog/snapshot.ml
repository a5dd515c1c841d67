type entry = {
  name : string;
  spec : string;
  inserts : int;
  stale : bool;
  provenance : string option;
  summary : Selest.Stored.any;
}

let magic = "selest-catalog v1"
let extension = ".summary"

let file_name name =
  let buf = Buffer.create (String.length name + 8) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  Buffer.contents buf ^ extension

let path ~dir name = Filename.concat dir (file_name name)

let save ~dir entry =
  if String.contains entry.name '\n' then
    invalid_arg "Snapshot.save: entry name must not contain newlines";
  if String.contains entry.spec '\n' then
    invalid_arg "Snapshot.save: spec must not contain newlines";
  (match entry.provenance with
  | Some p when String.contains p '\n' ->
    invalid_arg "Snapshot.save: provenance must not contain newlines"
  | _ -> ());
  let final = path ~dir entry.name in
  let tmp = final ^ ".tmp" in
  let oc = open_out tmp in
  (try
     Printf.fprintf oc "%s\nname %s\nspec %s\ninserts %d\nstale %d\n" magic entry.name
       entry.spec entry.inserts
       (if entry.stale then 1 else 0);
     (match entry.provenance with
     | Some p -> Printf.fprintf oc "provenance %s\n" p
     | None -> ());
     output_string oc (Selest.Stored.any_to_string entry.summary);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp final

(* [field key line] is the remainder of [line] after "key ", or None. *)
let field key line =
  let prefix = key ^ " " in
  let lp = String.length prefix in
  if String.length line >= lp && String.sub line 0 lp = prefix then
    Some (String.sub line lp (String.length line - lp))
  else None

let ( let* ) = Result.bind

let parse contents =
  match String.split_on_char '\n' contents with
  | m :: name_line :: spec_line :: inserts_line :: stale_line :: rest ->
    if String.trim m <> magic then Error "missing selest-catalog v1 header"
    else
      let* name =
        Option.to_result ~none:"missing name line" (field "name" name_line)
      in
      let* spec =
        Option.to_result ~none:"missing spec line" (field "spec" spec_line)
      in
      let* inserts =
        match Option.bind (field "inserts" inserts_line) int_of_string_opt with
        | Some n when n >= 0 -> Ok n
        | Some _ -> Error "negative insert count"
        | None -> Error "missing or malformed inserts line"
      in
      let* stale =
        match field "stale" stale_line with
        | Some "0" -> Ok false
        | Some "1" -> Ok true
        | Some _ -> Error "malformed stale flag"
        | None -> Error "missing stale line"
      in
      (* The provenance line is optional (introduced after the first v1
         files shipped): present iff the next line carries the key.  No
         payload header starts with "provenance " — they all start with
         "selest-stored" — so peeking is unambiguous, and pre-provenance
         snapshots parse unchanged. *)
      let provenance, rest =
        match rest with
        | line :: tail -> (
          match field "provenance" line with
          | Some p -> (Some p, tail)
          | None -> (None, rest))
        | [] -> (None, rest)
      in
      let* summary = Selest.Stored.any_of_string (String.concat "\n" rest) in
      let* () =
        (* A snapshot whose spec no longer parses cannot be rebuilt when it
           goes stale; treat it as corrupt now rather than at rebuild time.
           The payload header decides which spec syntax applies, so the
           summary is parsed first. *)
        let describe = function
          | Ok _ -> Ok ()
          | Error e -> Error (Printf.sprintf "unparseable spec %S: %s" spec e)
        in
        match Selest.Stored.any_kind summary with
        | Selest.Stored.Range_kind ->
          describe (Selest.Estimator.spec_of_string spec)
        | Selest.Stored.Rect_kind -> describe (Selest.Stored.rect_spec_of_string spec)
        | Selest.Stored.Join_kind -> describe (Selest.Stored.join_spec_of_string spec)
      in
      Ok { name; spec; inserts; stale; provenance; summary }
  | _ -> Error "truncated header"

let load ~path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    contents
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error "truncated file"
  | contents -> parse contents

let tmp_extension = extension ^ ".tmp"

let load_dir ~dir () =
  let listing = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
  (* A *.summary.tmp file is a write that died between temp-write and
     rename; its final file (if any) is intact, so the orphan is pure
     garbage — sweep it, and report the sweep like a corrupt-file skip. *)
  let orphans =
    List.filter (fun f -> Filename.check_suffix f tmp_extension) listing
    |> List.filter_map (fun f ->
           match Sys.remove (Filename.concat dir f) with
           | () -> Some (f, "orphaned temp file from an interrupted write; deleted")
           | exception Sys_error msg ->
             Some (f, "orphaned temp file; could not delete: " ^ msg))
  in
  let files = List.filter (fun f -> Filename.check_suffix f extension) listing in
  List.fold_left
    (fun (ok, skipped) file ->
      match load ~path:(Filename.concat dir file) with
      | Ok e -> (e :: ok, skipped)
      | Error msg -> (ok, (file, msg) :: skipped))
    ([], List.rev orphans) files
  |> fun (ok, skipped) -> (List.rev ok, List.rev skipped)

let delete ~dir name =
  let p = path ~dir name in
  if Sys.file_exists p then Sys.remove p

(** The fleet campaign's persistent corpus/results store: versioned,
    append-only, crash-resumable.

    A campaign writes one record per completed cell, flushed as it lands;
    a killed campaign reopens the store with {!resume} and restarts from
    its last committed record, running only the cells the store does not
    already hold. Because cells are pure functions of their index and the
    merged report is rendered from the index-ordered cell array, a
    kill/resume sequence produces a report byte-identical to an
    uninterrupted run at any [TICKTOCK_JOBS] setting.

    On-disk format (["TICKFLT\n"], version 1):

    {v
    bytes 0..7   magic "TICKFLT\n"
    byte  8      version (one byte)
    frame 0      the campaign spec key (refused on mismatch at resume)
    frame 1..    one frame per committed cell
    v}

    Every frame is [u32 length | payload | u64 FNV-1a checksum], all
    big-endian; a cell frame's payload is [u32 cell-index | data]. Appends
    are flushed record-at-a-time, so the only damage a kill can inflict is
    a {e short trailing frame}. The two read paths split exactly there:

    - {!load} is strict — any anomaly (bad magic, unsupported version,
      checksum mismatch, short tail) raises {!Refused};
    - {!resume} tolerates {e only} a short trailing frame (the kill
      point): it keeps every complete record and rewrites the store
      without the torn tail. A checksum mismatch on a {e complete} frame
      is corruption, not a kill artifact, and is refused in both modes. *)

exception Refused of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refused ("Fleet.Store: " ^ m))) fmt
let magic = "TICKFLT\n"
let version = 1

type record = { rc_index : int; rc_data : string }

type t = {
  st_path : string;
  mutable st_oc : out_channel option;
  mutable st_records : int;
}

(* --- frame primitives --- *)

let u32_to_string n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let u32_of_string s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let checksum payload = Fp.string Fp.seed payload

let u64_to_string v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.to_string b

let write_frame oc payload =
  output_string oc (u32_to_string (String.length payload));
  output_string oc payload;
  output_string oc (u64_to_string (checksum payload));
  flush oc

(* [read_frame ic] distinguishes a clean end-of-file at a frame boundary
   ([`End]), a short trailing frame ([`Torn] — what a kill leaves), and a
   complete frame whose checksum disagrees ([`Corrupt]). *)
let read_frame ic =
  let len = in_channel_length ic in
  let remaining = len - pos_in ic in
  if remaining = 0 then `End
  else if remaining < 4 then `Torn
  else begin
    let n = u32_of_string (really_input_string ic 4) 0 in
    if n < 0 || len - pos_in ic < n + 8 then `Torn
    else begin
      let payload = really_input_string ic n in
      let sum = Bytes.get_int64_be (Bytes.of_string (really_input_string ic 8)) 0 in
      if sum <> checksum payload then `Corrupt else `Frame payload
    end
  end

let record_of_payload payload =
  if String.length payload < 4 then refuse "%s: cell frame shorter than its index" "read";
  { rc_index = u32_of_string payload 0;
    rc_data = String.sub payload 4 (String.length payload - 4) }

let payload_of_record r = u32_to_string r.rc_index ^ r.rc_data

(* --- the read path ---

   [scan] parses everything after the version byte and reports how the
   file ends; both [load] and [resume] are thin wrappers over it. *)

let scan_channel ic path =
  let m =
    try really_input_string ic (String.length magic) with End_of_file -> ""
  in
  if m <> magic then refuse "%s: not a fleet store" path;
  let v = try Char.code (input_char ic) with End_of_file -> refuse "%s: truncated header" path in
  if v <> version then refuse "%s: unsupported version %d (supported: %d)" path v version;
  let spec =
    match read_frame ic with
    | `Frame s -> s
    | `End | `Torn -> refuse "%s: truncated spec frame" path
    | `Corrupt -> refuse "%s: spec frame checksum mismatch" path
  in
  let rec records acc =
    match read_frame ic with
    | `Frame p -> records (record_of_payload p :: acc)
    | `End -> (List.rev acc, `Clean)
    | `Torn -> (List.rev acc, `Torn)
    | `Corrupt -> refuse "%s: record checksum mismatch (corrupt store)" path
  in
  let recs, ending = records [] in
  (spec, recs, ending)

let scan path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> scan_channel ic path)

(** Strict read of a complete store: [(spec, records)]. Refuses any
    truncation — inspect an interrupted campaign through {!resume}. *)
let load path =
  let spec, recs, ending = scan path in
  (match ending with
  | `Clean -> ()
  | `Torn -> refuse "%s: truncated trailing record (killed campaign? resume it)" path);
  (spec, recs)

(* --- the write path --- *)

let open_fresh path spec =
  let oc = open_out_bin path in
  output_string oc magic;
  output_char oc (Char.chr version);
  write_frame oc spec;
  { st_path = path; st_oc = Some oc; st_records = 0 }

(** Create (or overwrite) a store for a campaign with the given spec key. *)
let create ~path ~spec = open_fresh path spec

(** Append one committed cell. Flushed before returning: after a kill, at
    worst the record being written is torn — never an earlier one. *)
let append t ~index ~data =
  match t.st_oc with
  | None -> refuse "%s: store is closed" t.st_path
  | Some oc ->
    write_frame oc (payload_of_record { rc_index = index; rc_data = data });
    t.st_records <- t.st_records + 1

(** Reopen a store after a kill (or open a fresh one if [path] does not
    exist): returns the store, positioned for appends, plus every
    committed record [keep] accepts. Refuses a spec-key
    mismatch — resuming a campaign with different boards/plans/cell count
    would merge incompatible cells. A short trailing frame (the kill
    point) and every record [keep] rejects are dropped by rewriting the
    store from the kept records. *)
let resume ~keep ~path ~spec =
  if not (Sys.file_exists path) then (create ~path ~spec, [])
  else begin
    let file_spec, recs, _ending = scan path in
    if file_spec <> spec then
      refuse "%s: spec mismatch (store %S, campaign %S)" path file_spec spec;
    let recs = List.filter keep recs in
    (* Drop the torn tail by rewriting: stdlib has no ftruncate, and a
       full rewrite of committed records is cheap next to the campaign. *)
    let t = open_fresh path spec in
    List.iter (fun r -> append t ~index:r.rc_index ~data:r.rc_data) recs;
    (t, recs)
  end

let records t = t.st_records

let close t =
  match t.st_oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    t.st_oc <- None

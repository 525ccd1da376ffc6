(* The repository benchmark; see README.md. Run it through run.py, which
   builds this executable first.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale K]
     trace 0: the end-to-end metrics, measured with tracing off;
     trace 1: the per-layer metrics, from a separate traced run;
     scale K: every campaign K times smaller (the self-check); reference
       digests exist only at scale 1, so at other scales a run checks that
       its campaigns repeat their digest instead.
   bench.exe --record-reference
     rewrite perfbench/reference.txt from this build.

   Provenance goes to a "# provenance" line and a human-readable summary
   to stderr; the last line of standard output is the result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}} *)

let now_s = Stat.now_s
let reference_path = Filename.concat "perfbench" "reference.txt"
let digest report = Digest.to_hex (Digest.string report)

(* Campaign stores live here while a run lasts. *)
let with_work_dir f =
  let dir = ".perfbench_work" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try Sys.rmdir dir with Sys_error _ -> ()) (fun () -> f dir)

(* --- reference digests ---

   reference.txt holds one "workload input-seed digest attempted failed"
   line per recorded campaign. Fleet lattices ignore the seed and are
   recorded under input seed 0. *)

let load_reference () =
  if not (Sys.file_exists reference_path) then []
  else
    In_channel.with_open_text reference_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           if l = "" || l.[0] = '#' then None
           else
             try Some (Scanf.sscanf l "%s %d %s %d %d" (fun w s d a f -> ((w, s), (d, a, f))))
             with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

let record_reference () =
  let lines =
    with_work_dir (fun work ->
        List.concat_map
          (fun (w : Workloads.t) ->
            let seeds = if w.uses_seed then List.init Workloads.seed_space Fun.id else [ 0 ] in
            List.map
              (fun s ->
                let t0 = now_s () in
                let o = w.campaign ~input_seed:s ~work in
                Printf.eprintf "%s %d: %d cells, %d failed, %.2f s\n%!" w.name s o.attempted
                  o.failed (now_s () -. t0);
                (* the report's failure lines, kept as comments: the known
                   failures this reference accepts *)
                let failures =
                  String.split_on_char '\n' o.report
                  |> List.filter (String.starts_with ~prefix:"FAILED")
                  |> List.map (Printf.sprintf "# %s %d: %s\n" w.name s)
                in
                String.concat "" failures
                ^ Printf.sprintf "%s %d %s %d %d" w.name s (digest o.report) o.attempted o.failed)
              seeds)
          (Workloads.all ~scale:1))
  in
  Out_channel.with_open_text reference_path (fun oc ->
      output_string oc
        "# workload input-seed report-digest cells-attempted cells-failed\n\
         # written by: bench.exe --record-reference\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* --- provenance --- *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 when rev <> "" -> rev | _ -> "none"
  with Unix.Unix_error _ | Sys_error _ -> "none"

(* A digest of the simulator sources, which names the code under test also
   in a checkout that is not a git repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  try Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
  with Sys_error _ -> "none"

let provenance (w : Workloads.t) ~seed ~trace ~scale =
  Printf.sprintf
    "{\"git_rev\": %S, \"source_digest\": %S, \"nproc\": %d, \"ocaml\": %S, \"workload\": %S, \
     \"seed\": %d, \"input_seeds\": %s, \"jobs\": %d, \"cells_per_campaign\": %d, \"trace\": %d, \
     \"scale\": %d}"
    (git_rev ()) (source_digest ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version w.name seed
    (if w.uses_seed then
       "[" ^ String.concat ", " (List.map string_of_int (w.inputs ~seed)) ^ "]"
     else "\"none: the fleet lattice is seeded by cell index inside the program\"")
    w.jobs w.cells trace scale

(* --- the result --- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable notes : string list;
}

let fail tally note =
  tally.correct <- false;
  tally.notes <- note :: tally.notes

let result_json tally (metrics : Layers.metric list) =
  let m =
    List.map
      (fun (m : Layers.metric) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    tally.correct tally.attempted tally.failed (String.concat ", " m)

(* --- checked campaigns --- *)

type checker = {
  reference : ((string * int) * (string * int * int)) list option;
      (** [None]: no reference at this scale; campaigns must repeat their digest *)
  seen : (int, string) Hashtbl.t;  (** input seed -> first digest this run *)
  counted : (int, unit) Hashtbl.t;  (** input seeds whose cells the tally holds *)
}

(* Run one campaign and check its report. The tally counts each distinct
   campaign of a run once, however many passes repeat it, so that a run's
   [attempted] and [failed] depend on its seed and not on how many passes
   fit in its time. Every repetition is checked all the same, and a
   campaign whose digest does not match counts every one of its cells as
   attempted and failed each time. *)
let checked_campaign (w : Workloads.t) ~input_seed ~work ~checker tally =
  let o = w.campaign ~input_seed ~work in
  let d = digest o.report in
  let ok =
    match checker.reference with
    | Some reference -> (
      match List.assoc_opt (w.name, input_seed) reference with
      | Some (rd, ra, rf) -> rd = d && ra = o.attempted && rf = o.failed
      | None -> false)
    | None -> (
      match Hashtbl.find_opt checker.seen input_seed with
      | Some first -> first = d
      | None ->
        Hashtbl.add checker.seen input_seed d;
        true)
  in
  if not ok then begin
    tally.attempted <- tally.attempted + o.attempted;
    tally.failed <- tally.failed + o.attempted;
    fail tally
      (Printf.sprintf "%s input seed %d: report digest %s does not match" w.name input_seed d)
  end
  else if not (Hashtbl.mem checker.counted input_seed) then begin
    Hashtbl.add checker.counted input_seed ();
    tally.attempted <- tally.attempted + o.attempted;
    tally.failed <- tally.failed + o.failed
  end;
  o

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One pass: a campaign per input seed, each timed between two host-speed
   calibrations (a calibration ends one campaign's window and opens the
   next one's). Host times are summed calibrated ([dt], [cpu]) and raw
   ([raw_dt]); the GC figures exclude the calibrations. Minor words are
   summed over every domain: the pool has joined when [Gc.quick_stat]
   runs. *)
type pass = {
  outcomes : Workloads.outcome list;
  cells : float;
  dt : float;
  raw_dt : float;
  cpu : float;
  minor : float;
  majors : int;
}

let timed_pass (w : Workloads.t) ~inputs ~work ~checker tally =
  let f_prev = ref (Calib.factor ~jobs:w.jobs) in
  List.fold_left
    (fun p input_seed ->
      let q0 = Gc.quick_stat () in
      let c0 = cpu_s () in
      let t0 = now_s () in
      let o = checked_campaign w ~input_seed ~work ~checker tally in
      let dt = now_s () -. t0 in
      let dc = cpu_s () -. c0 in
      let q1 = Gc.quick_stat () in
      let f_next = Calib.factor ~jobs:w.jobs in
      let f = Calib.slowdown !f_prev f_next in
      f_prev := f_next;
      {
        outcomes = p.outcomes @ [ o ];
        cells = p.cells +. float_of_int o.attempted;
        dt = p.dt +. (dt /. f);
        raw_dt = p.raw_dt +. dt;
        cpu = p.cpu +. (dc /. f);
        minor = p.minor +. (q1.Gc.minor_words -. q0.Gc.minor_words);
        majors = p.majors + (q1.Gc.major_collections - q0.Gc.major_collections);
      })
    { outcomes = []; cells = 0.; dt = 0.; raw_dt = 0.; cpu = 0.; minor = 0.; majors = 0 }
    inputs

(* The process's peak resident memory (VmHWM), in MB. [Gc]'s
   top_heap_words is no substitute: with worker domains it is not
   monotone (one 3000-cell fleet run read 8.1 to 14.8 MB between passes). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         try Scanf.sscanf l "VmHWM: %d kB" Option.some
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  |> Option.get |> float_of_int |> fun kb -> kb /. 1e3

(* --- trace 0: the end-to-end metrics ---

   Host times (cells/s, CPU per cell, set-up) are divided by the host's
   slowdown measured around them (Calib); the raw figures go to stderr. *)

(* Set-up is repeated for about [setup_seconds] (within the rep limits)
   and reported as the median. *)
let setup_seconds = 1.
let setup_reps_min = 10
let setup_reps_max = 2000
let min_passes = 3

let end_to_end (w : Workloads.t) ~seed ~seconds ~work ~checker tally =
  let inputs = w.inputs ~seed in
  let rates = ref [] and raw = ref [] and cpu = ref [] and words = ref [] in
  let cells_total = ref 0. and majors = ref 0 in
  let t_end = now_s () +. seconds in
  while now_s () < t_end || List.length !rates < min_passes do
    let p = timed_pass w ~inputs ~work ~checker tally in
    cells_total := !cells_total +. p.cells;
    majors := !majors + p.majors;
    raw := (p.cells /. p.raw_dt) :: !raw;
    rates := (p.cells /. p.dt) :: !rates;
    cpu := (p.cpu *. 1e6 /. p.cells) :: !cpu;
    words := (p.minor /. p.cells) :: !words
  done;
  let peak_mb = peak_rss_mb () in
  (* Set-up is timed after the passes, on a warm process. *)
  let setups, setup_f =
    Calib.timed ~jobs:1 (fun () ->
        let t_end = now_s () +. setup_seconds in
        let rec go acc n =
          if n >= setup_reps_max || (n >= setup_reps_min && now_s () > t_end) then acc
          else begin
            let t0 = now_s () in
            w.setup ~input_seed:(List.hd inputs);
            go ((now_s () -. t0) :: acc) (n + 1)
          end
        in
        go [] 0)
  in
  Printf.eprintf "%s: %d passes of %d campaign(s); cells/s per pass: %s (raw: %s)\n%!" w.name
    (List.length !rates) (List.length inputs)
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") !rates))
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") !raw));
  let m name value unit = { Layers.name; value; unit } in
  [
    m "cells_per_s" (Stat.median !rates) "1/s";
    m "cpu_us_per_cell" (Stat.median !cpu) "us";
    m "alloc_words_per_cell" (Stat.median !words) "words";
    m "major_gcs_per_kcell" (float_of_int !majors *. 1000. /. !cells_total) "count";
    m "peak_rss_mb" peak_mb "MB";
    m "setup_s" (Stat.median setups /. setup_f) "s";
    m "pass_frac" (1. -. (float_of_int tally.failed /. float_of_int tally.attempted)) "frac";
  ]

(* --- trace 1: the per-layer metrics ---

   Half the time runs the traced campaigns untraced (the base for the
   tracing overhead, and the records the traced cells must reproduce); the
   other half replicates their cells traced, at least twice, so that the
   model counts can be checked to repeat exactly. The traced campaigns are
   the first [traced_campaigns] of a pass. Host times are calibrated as in
   the end-to-end run, per pass. *)

let min_traced = 2
let traced_campaigns = 4

let traced (w : Workloads.t) ~seed ~seconds ~work ~checker tally =
  let inputs = List.filteri (fun i _ -> i < traced_campaigns) (w.inputs ~seed) in
  let rates = ref [] and last = ref [] in
  let t_half = now_s () +. (seconds /. 2.) in
  while now_s () < t_half || !rates = [] do
    let p = timed_pass w ~inputs ~work ~checker tally in
    rates := (p.cells /. p.dt) :: !rates;
    last := p.outcomes
  done;
  let expected = List.combine inputs (List.map (fun (o : Workloads.outcome) -> o.records) !last) in
  let passes = ref [] in
  let t_end = now_s () +. (seconds /. 2.) in
  while now_s () < t_end || List.length !passes < min_traced do
    let p, factor =
      Calib.timed ~jobs:w.jobs (fun () ->
          Traced.concat
            (List.map (fun (input_seed, expect) -> w.pass ~input_seed ~work ~expect) expected))
    in
    let p = { p with factor } in
    (* The traced cells replicate campaigns the tally already holds; only
       a pass that disagrees with their records adds to it. *)
    if p.problems <> [] then begin
      List.iter (fail tally) (List.filteri (fun i _ -> i < 5) p.problems);
      tally.attempted <- tally.attempted + Array.length p.cells;
      tally.failed <- tally.failed + Array.length p.cells
    end;
    passes := p :: !passes
  done;
  let passes = List.rev !passes in
  let first = List.hd passes in
  List.iteri
    (fun n (p : Traced.pass) ->
      if n > 0 && Array.map (fun (c : Traced.cell) -> c.counts) p.cells
                  <> Array.map (fun (c : Traced.cell) -> c.counts) first.cells
      then fail tally (Printf.sprintf "traced pass %d: model counts differ from pass 1" (n + 1)))
    passes;
  let metrics, summary =
    Layers.compute ~jobs:w.jobs ~untraced_rate:(Stat.median !rates) passes
  in
  Printf.eprintf "%s: %d untraced passes, %d traced passes\n%s\n%!" w.name
    (List.length !rates) (List.length passes) summary;
  metrics

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale K]\n\
    \       bench.exe --record-reference";
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let int_opt k = Option.bind (opt k args) int_of_string_opt in
  if args = [ "--record-reference" ] then record_reference ()
  else
    let scale = Option.value ~default:1 (int_opt "--scale") in
    match (opt "--workload" args, int_opt "--seed", int_opt "--seconds", int_opt "--trace") with
    | Some name, Some seed, Some seconds, Some trace
      when seconds > 0 && scale > 0 && (trace = 0 || trace = 1) ->
      let w = match Workloads.find ~scale name with Some w -> w | None -> usage () in
      let checker =
        {
          reference =
            (if scale = 1 then
               match load_reference () with
               | [] ->
                 prerr_endline ("bench: no reference digests in " ^ reference_path);
                 exit 1
               | r -> Some r
             else None);
          seen = Hashtbl.create 8;
          counted = Hashtbl.create 64;
        }
      in
      print_endline ("# provenance " ^ provenance w ~seed ~trace ~scale);
      let tally = { attempted = 0; failed = 0; correct = true; notes = [] } in
      let metrics =
        with_work_dir (fun work ->
            let seconds = float_of_int seconds in
            if trace = 0 then end_to_end w ~seed ~seconds ~work ~checker tally
            else traced w ~seed ~seconds ~work ~checker tally)
      in
      List.iter (fun n -> prerr_endline ("bench: " ^ n)) (List.rev tally.notes);
      print_endline (result_json tally metrics)
    | _ -> usage ()

(* Shared command-line conventions for the campaign subcommands.

   Two things every campaign command (fuzz, difftest, chaos, fleet,
   fuzzcov, fabric) used to spell slightly differently, now spelled once:

   - the execution spec: `--exec boot|fork|snapshot:FILE`, with the
     deprecated `--fork` / `--from-snapshot FILE` spellings kept as
     warning aliases (Replayable.Exec.of_flags resolves the precedence);

   - the exit-code and output discipline: 0 clean / 2 findings /
     3 interrupted / 1 usage error, stdout carrying only the
     deterministic report (so CI can byte-diff it across jobs settings
     and kill/resume splits) and everything else — progress, "wrote
     FILE" notices, deprecation warnings — going to stderr. *)

open Ticktock
open Cmdliner

(* --- the execution spec --- *)

let exec_term =
  let exec =
    Arg.(
      value
      & opt (some string) None
      & info [ "exec" ] ~docv:"SPEC"
          ~doc:
            "How to obtain a board per cell: $(b,boot) (build a fresh board every time), \
             $(b,fork) (boot once per worker, restore the pristine post-boot image in front \
             of every cell), or $(b,snapshot:FILE) (fork from the on-disk image in FILE; \
             refuses a mismatched architecture, board or memory layout). Outputs must be \
             byte-identical across all three.")
  in
  let fork =
    Arg.(value & flag & info [ "fork" ] ~doc:"Deprecated alias for $(b,--exec fork).")
  in
  let from_snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-snapshot" ] ~docv:"FILE"
          ~doc:"Deprecated alias for $(b,--exec snapshot:FILE).")
  in
  Term.(
    const (fun exec fork from_snapshot -> Replayable.Exec.of_flags ~fork ~from_snapshot exec)
    $ exec $ fork $ from_snapshot)

(* --- exit codes and the report stream --- *)

let exit_clean = 0
let exit_usage = 1
let exit_findings = 2
let exit_interrupted = 3

(** The campaign was stopped before every cell was accounted for. *)
let interrupted ~label =
  Printf.eprintf "%s: campaign interrupted (resume it with --resume)\n" label;
  exit_interrupted

let usage_error m =
  prerr_endline m;
  exit_usage

(** Deliver the deterministic report (stdout, or [-o FILE] with a stderr
    notice) and map the verdict to the shared exit-code convention. *)
let finish ~label ~ok ~out report =
  (match out with
  | None -> print_string report
  | Some path ->
    let oc = open_out path in
    output_string oc report;
    close_out oc;
    Printf.eprintf "%s: wrote %s\n" label path);
  if ok then exit_clean else exit_findings

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the report to $(docv) instead of stdout.")

(* --- resumable campaigns (fleet, fabric, fuzzcov) --- *)

type campaign = {
  cp_jobs : int option;
  cp_store : string option;
  cp_resume : bool;
  cp_stop_after : int option;
}

(** [-j/--store/--resume/--stop-after] for a campaign on
    {!Fleet.Driver}; [unit] names its slots ("cells", "generations"). *)
let campaign_term ~unit =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: $(b,TICKTOCK_JOBS) or the host core count).")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Persist completed %s to $(docv) (versioned, append-only, resumable)." unit))
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            (Printf.sprintf "Recover committed %s from $(b,--store) and run only the rest." unit))
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Start no new %s once $(docv) have been committed by this run (deterministic \
                kill, for resumability testing)."
               unit))
  in
  Term.(
    const (fun cp_jobs cp_store cp_resume cp_stop_after ->
        { cp_jobs; cp_store; cp_resume; cp_stop_after })
    $ jobs $ store $ resume $ stop_after)

(** Run a command body, turning a refused store or a bad argument into a
    usage error. *)
let guard f =
  try f () with Invalid_argument m | Failure m | Fleet.Store.Refused m -> usage_error m

(* --- failure-cell bundle emission --- *)

let bundle_cap = 8

let bundles_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundles" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf
             "Record a TICKRPL replay bundle into $(docv) for each failing cell (first %d), \
              replayable with $(b,ticktock replay)."
             bundle_cap))

(** Record and write up to {!bundle_cap} bundles, one per failing cell.
    [cells] pairs a file stem with a thunk that records the bundle (a
    re-execution of the cell); recording failures are reported to stderr
    and skipped, never fatal — the campaign verdict stands on its own. *)
let write_bundles ~label ~dir (cells : (string * (unit -> Replay.Bundle.t)) list) =
  if cells = [] then Printf.eprintf "%s: no failing cells, no bundles written\n" label
  else begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i (stem, make) ->
        if i < bundle_cap then begin
          let path = Filename.concat dir (stem ^ ".tickrpl") in
          match make () with
          | b ->
            Replay.Bundle.save b path;
            Printf.eprintf "%s: wrote %s\n" label path
          | exception (Replay.Bundle.Refused m | Invalid_argument m | Failure m) ->
            Printf.eprintf "%s: could not record %s: %s\n" label stem m
        end)
      cells;
    let n = List.length cells in
    if n > bundle_cap then
      Printf.eprintf "%s: %d failing cells, bundles capped at %d\n" label n bundle_cap
  end

(** Deliver a campaign's report: exit 3 if it was interrupted; otherwise
    write a bundle for each [failing] cell under [--bundles DIR] and
    {!finish}. *)
let conclude ~label ~complete ~ok ~out ~bundles ~failing report =
  if not complete then interrupted ~label
  else begin
    Option.iter (fun dir -> write_bundles ~label ~dir (failing ())) bundles;
    finish ~label ~ok ~out report
  end

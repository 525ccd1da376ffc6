(* The four benchmark workloads, each a batch campaign driven through the
   campaign's public [run] function with tracing off.

   A workload maps the benchmark seed to the input seeds of one pass, runs
   one campaign per input seed, and reports per campaign how many cells it
   attempted, how many failed, the campaign's deterministic report (whose
   digest is the correctness check) and its per-cell records. [setup]
   performs once the work that comes before the first cell can run:
   booting and capturing every pristine board (and, for fabric, building
   the topologies and the golden run). *)

open Ticktock

(* The input seed space: a benchmark seed is reduced into the
   [seed_space] seeds whose report digests reference.txt records. *)
let seed_space = 64
let input_seed seed = ((seed mod seed_space) + seed_space) mod seed_space

type outcome = {
  attempted : int;
  failed : int;
  report : string;
  records : string array;
      (** the campaign's own cell records, in its store encoding: one per
          fleet or fabric cell, one per fuzzcov generation *)
}

type t = {
  name : string;
  jobs : int;
  uses_seed : bool;  (** [false]: the lattice is seeded by cell index inside the program *)
  cells : int;  (** cells per campaign *)
  inputs : seed:int -> int list;  (** the input seeds of one pass, one campaign each *)
  setup : input_seed:int -> unit;
  campaign : input_seed:int -> work:string -> outcome;
  pass : input_seed:int -> work:string -> expect:string array -> Traced.pass;
      (** one traced pass over the cells of [campaign], checked against
          the campaign's records [expect] *)
}

let store_path ~work name = Filename.concat work (name ^ ".tickflt")

(* --- fleet and fleet-short --- *)

let fleet_spec ~cells = { Fleet.Campaign.default_spec with sp_cells = cells }

let fleet_short_spec ~cells =
  {
    Fleet.Campaign.default_spec with
    sp_plans = [ { Fleet.Campaign.pl_name = "short"; pl_fuzzers = 3; pl_steps = 4 } ];
    sp_cells = cells;
  }

let fleet_workload ~name ~jobs ~(spec : Fleet.Campaign.spec) =
  {
    name;
    jobs;
    uses_seed = false;
    cells = spec.sp_cells;
    inputs = (fun ~seed:_ -> [ 0 ]);
    setup =
      (fun ~input_seed:_ ->
        let reg = Snapshot.Registry.create () in
        List.iter
          (fun b -> ignore (Traced.boot_board reg b ~make:Fleet.Campaign.make_board))
          spec.sp_boards);
    campaign =
      (fun ~input_seed:_ ~work ->
        let store = store_path ~work name in
        let r = Fleet.Campaign.run ~jobs ~store spec in
        Sys.remove store;
        let cells = Array.map Option.get r.fl_cells in
        {
          attempted = spec.sp_cells;
          failed = Array.fold_left (fun a c -> if Traced.fleet_cell_ok c then a else a + 1) 0 cells;
          report = r.fl_report;
          records = Array.map Fleet.Campaign.encode_cell cells;
        });
    pass =
      (fun ~input_seed:_ ~work ~expect ->
        Traced.fleet_pass ~jobs ~spec ~store:(store_path ~work name) ~expect);
  }

(* --- fuzzcov-mc --- *)

(* The cost of an exec depends strongly on the genomes a campaign seed
   breeds (mean exec cost varies about fourfold between seeds), so one pass
   runs [fuzzcov_window] short campaigns on consecutive input seeds rather
   than one long campaign: the pass's figure then reflects the engine, not
   one seed's luck. *)
let fuzzcov_window = 48

let fuzzcov_spec ~input_seed ~gens =
  { Fuzzcov.Engine.default_spec with fc_seed = input_seed; fc_gens = gens }

let fuzzcov_workload ~gens ~window =
  let board = Fuzzcov.Engine.default_spec.fc_board in
  {
    name = "fuzzcov-mc";
    jobs = 1;
    uses_seed = true;
    cells = Fuzzcov.Engine.default_spec.fc_pop * gens;
    inputs = (fun ~seed -> List.init window (fun j -> input_seed (seed + j)));
    setup =
      (fun ~input_seed:_ ->
        ignore
          (Traced.boot_board (Snapshot.Registry.create ()) board
             ~make:Fuzzcov.Engine.make_board));
    campaign =
      (fun ~input_seed ~work ->
        let store = store_path ~work "fuzzcov-mc" in
        let r = Fuzzcov.Engine.run ~jobs:1 ~store (fuzzcov_spec ~input_seed ~gens) in
        let _, recs = Fleet.Store.load store in
        Sys.remove store;
        {
          attempted = r.fz_execs;
          (* a crasher is an exec that crashed in a class and site no
             earlier exec of the campaign crashed in *)
          failed = List.length r.fz_crashers;
          report = r.fz_report;
          records = Array.of_list (List.map (fun (r : Fleet.Store.record) -> r.rc_data) recs);
        });
    pass =
      (fun ~input_seed ~work:_ ~expect ->
        Traced.fuzzcov_pass ~spec:(fuzzcov_spec ~input_seed ~gens) ~expect);
  }

(* --- fabric-powerloss --- *)

let fabric_spec ~cuts ~input_seed =
  { Fabric.Campaign.default_spec with fb_cuts = cuts; fb_seed = input_seed }

let fabric_workload ~cuts =
  let spec_of input_seed = fabric_spec ~cuts ~input_seed in
  {
    name = "fabric-powerloss";
    jobs = 1;
    uses_seed = true;
    cells = Fabric.Campaign.cell_count (spec_of 0);
    inputs = (fun ~seed -> [ input_seed seed ]);
    setup =
      (fun ~input_seed ->
        let spec = spec_of input_seed in
        List.iter
          (fun p ->
            ignore
              (Fabric.Powerloss.make_env ~plan:(Fabric.Powerloss.plan_named p)
                 ~seed:spec.fb_seed ()))
          spec.fb_plans;
        ignore (Fabric.Powerloss.golden ~seed:spec.fb_seed ~horizon:spec.fb_horizon));
    campaign =
      (fun ~input_seed ~work:_ ->
        let spec = spec_of input_seed in
        (* Cell fingerprints hash the domain's absolute cycle count, so the
           campaign starts from zero, as in a fresh process, for the traced
           pass to reproduce them. *)
        Mach.Cycles.reset Mach.Cycles.global;
        let r = Fabric.Campaign.run ~jobs:1 spec in
        let cells = Array.map Option.get r.fb_cells in
        {
          attempted = Array.length cells;
          failed =
            Array.fold_left
              (fun a (c : Fabric.Campaign.cell) -> if c.fc_ok then a else a + 1)
              0 cells;
          report = r.fb_report;
          records = Array.map Fabric.Campaign.encode_cell cells;
        });
    pass =
      (fun ~input_seed ~work:_ ~expect -> Traced.fabric_pass ~spec:(spec_of input_seed) ~expect);
  }

(* --- the workload set --- *)

let fleet_cells = 3000
let fuzzcov_gens = 8

(* [scale] divides every size; the self-check runs at a large scale. At
   scale 1, fabric sweeps every admissible cut point (1 .. horizon-1) at the
   default horizon. *)
let all ~scale =
  let horizon = Fabric.Campaign.default_spec.fb_horizon in
  [
    fleet_workload ~name:"fleet" ~jobs:2 ~spec:(fleet_spec ~cells:(max 12 (fleet_cells / scale)));
    fleet_workload ~name:"fleet-short" ~jobs:1
      ~spec:(fleet_short_spec ~cells:(max 12 (fleet_cells / scale)));
    fuzzcov_workload ~gens:(max 2 (fuzzcov_gens / scale))
      ~window:(if scale = 1 then fuzzcov_window else 1);
    fabric_workload ~cuts:(max 4 ((horizon - 1) / scale));
  ]

let find ~scale name = List.find_opt (fun w -> w.name = name) (all ~scale)

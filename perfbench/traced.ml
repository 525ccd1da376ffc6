(* The traced run: the cells of a workload's campaign, replicated through
   the public functions of each layer, with every call timed from outside
   (Spans) and the board's model counts read after each cell.

   A traced pass returns, per cell, its outcome in the campaign's own record
   encoding (compared with the campaign's records) and its model counts
   (compared between two passes). Reading the model counts is recorded as
   a "probe" span; probes are tracing overhead and are not part of a cell's
   time. *)

open Ticktock

(* --- model counts --- *)

type counts = {
  syscalls : int;
  ticks : int;
  mpu_calls : int;
  mpu_cycles : int;
  model_cycles : int;
  bus_hits : int;
  bus_misses : int;
  ic_hits : int;
  ic_misses : int;
  instrs : int;
  link_hits : int;
  link_misses : int;
  traces : int;
  trace_blocks : int;
  frames : int;
  reboots : int;
}

let zero =
  {
    syscalls = 0;
    ticks = 0;
    mpu_calls = 0;
    mpu_cycles = 0;
    model_cycles = 0;
    bus_hits = 0;
    bus_misses = 0;
    ic_hits = 0;
    ic_misses = 0;
    instrs = 0;
    link_hits = 0;
    link_misses = 0;
    traces = 0;
    trace_blocks = 0;
    frames = 0;
    reboots = 0;
  }

let lift2 f a b =
  {
    syscalls = f a.syscalls b.syscalls;
    ticks = f a.ticks b.ticks;
    mpu_calls = f a.mpu_calls b.mpu_calls;
    mpu_cycles = f a.mpu_cycles b.mpu_cycles;
    model_cycles = f a.model_cycles b.model_cycles;
    bus_hits = f a.bus_hits b.bus_hits;
    bus_misses = f a.bus_misses b.bus_misses;
    ic_hits = f a.ic_hits b.ic_hits;
    ic_misses = f a.ic_misses b.ic_misses;
    instrs = f a.instrs b.instrs;
    link_hits = f a.link_hits b.link_hits;
    link_misses = f a.link_misses b.link_misses;
    traces = f a.traces b.traces;
    trace_blocks = f a.trace_blocks b.trace_blocks;
    frames = f a.frames b.frames;
    reboots = f a.reboots b.reboots;
  }

let add = lift2 ( + )
let sub = lift2 ( - )

(* One board's counts. The model cycle counter is domain-local and shared
   by every board of the domain, so callers read it once, not per board. *)
let board_counts (k : Instance.t) =
  let m = k.Instance.metrics () in
  let int name =
    match Obs.Metrics.find m name with
    | Some (Obs.Metrics.Counter v | Obs.Metrics.Gauge v) -> v
    | _ -> 0
  in
  let bus_hits, bus_misses = k.Instance.buscache_stats () in
  let ic =
    match k.Instance.icache_stats () with
    | Some s -> s
    | None ->
      {
        Fluxarm.Icache.hits = 0;
        misses = 0;
        cached = 0;
        total = 0;
        link_hits = 0;
        link_misses = 0;
        link_flushes = 0;
        traces = 0;
        trace_blocks = 0;
      }
  in
  {
    zero with
    syscalls = int "kernel/syscalls";
    ticks = k.Instance.ticks ();
    mpu_calls = int "hooks/setup_mpu/calls";
    mpu_cycles = int "hooks/setup_mpu/cycles";
    bus_hits;
    bus_misses;
    ic_hits = ic.hits;
    ic_misses = ic.misses;
    instrs = ic.total;
    link_hits = ic.link_hits;
    link_misses = ic.link_misses;
    traces = ic.traces;
    trace_blocks = ic.trace_blocks;
  }

let with_cycles c = { c with model_cycles = Cycles.read Cycles.global }
let probe ~cell f = Spans.span ~cell "probe" (fun () -> with_cycles (f ()))

(* --- helpers shared with the end-to-end workloads --- *)

(* The registry entry of board [name], booted by [make] and captured on
   first use, as the campaigns' runners do. *)
let boot_board reg name ~make =
  Snapshot.Registry.find_or_boot reg name ~boot:(fun () ->
      let k = make name in
      (k, Option.get k.Instance.snap_target))

let fleet_cell_ok (c : Fleet.Campaign.cell) =
  c.cl_witness_ok && c.cl_isolation_ok && not c.cl_panic

(* --- an instance whose loads, runs and isolation checks are timed --- *)

let timed_instance ~cell (k : Instance.t) =
  {
    k with
    Instance.load =
      (fun ~name ~payload ~program ~min_ram ~grant_reserve ~heap_headroom ->
        Spans.span ~cell "loader.load" (fun () ->
            k.Instance.load ~name ~payload ~program ~min_ram ~grant_reserve ~heap_headroom));
    run = (fun ~max_ticks -> Spans.span ~cell "kernel.run" (fun () -> k.Instance.run ~max_ticks));
    proc_isolation_ok =
      (fun pid -> Spans.span ~cell "verify.isolation" (fun () -> k.Instance.proc_isolation_ok pid));
  }

(* --- a pass --- *)

type cell = {
  id : int;
  record : string;  (** the outcome in the campaign's record encoding *)
  counts : counts;
}

type pass = {
  cells : cell array;  (** in cell-id order *)
  problems : string list;  (** where the pass disagreed with the campaign's own records *)
  spans : Spans.span list;
  wall_ns : int;  (** the whole pass *)
  pool_wall_ns : int list;  (** each pool run *)
  steals : int;
  factor : float;  (** the host's slowdown during the pass (Calib); 1 until measured *)
}

(* Run [cells] on the shared pool, as the campaigns do, and time the pool. *)
let pool ~jobs ~batch ~cells ~init ~cell =
  let t0 = Spans.now_ns () in
  let results, stats =
    Pool.run ~jobs ~batch ~cells
      ~init:(fun w ->
        Spans.set_worker w;
        init w)
      ~cell ()
  in
  (Array.map Option.get results, Spans.now_ns () - t0, stats.Pool.ps_steals)

(* Compare each cell's record with the campaign's record of that cell. *)
let mismatches ~expect cells =
  if Array.length expect <> Array.length cells then
    [ Printf.sprintf "%d cells traced, campaign recorded %d" (Array.length cells)
        (Array.length expect) ]
  else
    Array.to_list cells
    |> List.filter_map (fun c ->
           if c.record = expect.(c.id) then None
           else Some (Printf.sprintf "cell %d: traced %S, campaign %S" c.id c.record expect.(c.id)))

let finish ~t0 ~pools ~steals ~problems cells =
  {
    cells;
    problems;
    spans = Spans.collect ();
    wall_ns = Spans.now_ns () - t0;
    pool_wall_ns = pools;
    steals;
    factor = 1.;
  }

(* One pass over several campaigns, their cell ids made distinct. *)
let concat = function
  | [ p ] -> p
  | passes ->
    let offsets =
      List.rev
        (snd
           (List.fold_left
              (fun (off, acc) p -> (off + Array.length p.cells, off :: acc))
              (0, []) passes))
    in
    let shift off (c : cell) = { c with id = c.id + off } in
    {
      cells = Array.concat (List.map2 (fun p off -> Array.map (shift off) p.cells) passes offsets);
      problems = List.concat_map (fun p -> p.problems) passes;
      spans =
        List.concat
          (List.map2
             (fun p off ->
               List.map
                 (fun (s : Spans.span) -> if s.cell < 0 then s else { s with cell = s.cell + off })
                 p.spans)
             passes offsets);
      wall_ns = List.fold_left (fun a p -> a + p.wall_ns) 0 passes;
      pool_wall_ns = List.concat_map (fun p -> p.pool_wall_ns) passes;
      steals = List.fold_left (fun a p -> a + p.steals) 0 passes;
      factor = 1.;
    }

(* --- fleet cells: restore, reseed, Apps.Fuzz.round_on, store append --- *)

let fleet_pass ~jobs ~(spec : Fleet.Campaign.spec) ~store ~expect =
  Spans.reset ();
  let t0 = Spans.now_ns () in
  let coords = Fleet.Campaign.cell_coords spec in
  let st = Fleet.Store.create ~path:store ~spec:(Fleet.Campaign.spec_key spec) in
  let st_mu = Mutex.create () in
  let init _ = Snapshot.Registry.create () in
  let cell reg i =
    let bname, (plan : Fleet.Campaign.plan), seed = coords i in
    let e =
      Spans.span ~cell:(-1) "snapshot.boot" (fun () ->
          boot_board reg bname ~make:Fleet.Campaign.make_board)
    in
    let k = e.Snapshot.Registry.re_payload in
    Spans.span ~cell:i "cell" (fun () ->
        Spans.span ~cell:i "snapshot.restore" (fun () ->
            Snapshot.restore e.Snapshot.Registry.re_target e.Snapshot.Registry.re_snap);
        let c0 = probe ~cell:i (fun () -> board_counts k) in
        Spans.span ~cell:i "fork.reseed" (fun () -> k.Instance.reseed (seed * 0x9E3779B1));
        let o =
          Apps.Fuzz.round_on (timed_instance ~cell:i k) ~max_ticks:spec.sp_max_ticks
            ~fuzzers:plan.pl_fuzzers ~steps:plan.pl_steps ~seed
        in
        let c =
          {
            Fleet.Campaign.cl_index = i;
            cl_board = bname;
            cl_plan = plan.pl_name;
            cl_seed = seed;
            cl_witness_ok = o.Apps.Fuzz.witness_ok;
            cl_isolation_ok = o.Apps.Fuzz.isolation_ok;
            cl_panic = o.Apps.Fuzz.kernel_panic <> None;
            cl_faulted = o.Apps.Fuzz.fuzzers_faulted;
            cl_exited = o.Apps.Fuzz.fuzzers_exited;
          }
        in
        let record = Fleet.Campaign.encode_cell c in
        Spans.span ~cell:i "store.append" (fun () ->
            Mutex.protect st_mu (fun () -> Fleet.Store.append st ~index:i ~data:record));
        let c1 = probe ~cell:i (fun () -> board_counts k) in
        { id = i; record; counts = sub c1 c0 })
  in
  let cells, wall, steals = pool ~jobs ~batch:32 ~cells:spec.sp_cells ~init ~cell in
  Fleet.Store.close st;
  Sys.remove store;
  finish ~t0 ~pools:[ wall ] ~steals ~problems:(mismatches ~expect cells) cells

(* --- fuzzcov execs: restore, reseed, the calls of Fuzzcov.Engine.run_input ---

   The genomes are the engine's own: each generation's candidates are
   derived, as the engine derives them, from the corpus that the campaign's
   generation records fold to ([expect] holds those records). The pass
   checks what the records pin down: the entries each generation accepted
   (input, bitmap and depth, in slot order) and the coverage totals after
   merging every exec's bitmap in slot order. An exec's record is its
   generation and slot plus, when the campaign accepted it, its entry id. *)

(* [Fuzzcov.Engine.run_input], call for call, each call timed. *)
let run_input ~cell (k : Instance.t) (g : Fuzzcov.Input.t) : Fuzzcov.Engine.exec =
  let span name f = Spans.span ~cell name f in
  let ic = k.Instance.icache () in
  span "coverage.map" (fun () ->
      match ic with
      | Some ic ->
        Fluxarm.Icache.set_coverage ic true;
        Fluxarm.Icache.cov_reset ic
      | None -> ());
  let load name payload script =
    let program = span "userland.build" (fun () -> Apps.App_dsl.to_program (script ())) in
    span "loader.load" (fun () ->
        k.Instance.load ~name ~payload ~program ~min_ram:2048 ~grant_reserve:1024
          ~heap_headroom:2048)
    |> Result.get_ok
  in
  let witness = load "witness" "w" (fun () -> Apps.Fuzz.witness_script) in
  let gen_pid = load "gen" "g" (fun () -> Fuzzcov.Input.script g) in
  let crash =
    match span "kernel.run" (fun () -> k.Instance.run ~max_ticks:g.Fuzzcov.Input.in_ticks) with
    | () ->
      let witness_bad =
        k.Instance.proc_faulted witness
        || (k.Instance.proc_exit witness = Some 0
           && k.Instance.proc_output witness <> Some "true")
      in
      let isolation_bad =
        not
          (List.for_all
             (fun pid -> span "verify.isolation" (fun () -> k.Instance.proc_isolation_ok pid))
             [ witness; gen_pid ])
      in
      if witness_bad || isolation_bad then
        Some
          ( Verify.Taxonomy.Witness_corruption,
            "witness",
            if isolation_bad then "hardware view escaped the logical view"
            else "witness output corrupted" )
      else None
    | exception Tock_cortexm_mpu.Kernel_panic msg ->
      Some (Verify.Taxonomy.Kernel_panic, "kernel", msg)
    | exception Verify.Violation.Violation v ->
      Some
        ( Verify.Taxonomy.class_of_site v.Verify.Violation.site,
          v.Verify.Violation.site,
          v.Verify.Violation.detail )
  in
  let ex_cov, ex_hits =
    span "coverage.map" (fun () ->
        match ic with
        | Some ic ->
          let cc = Fluxarm.Icache.cov_counts ic in
          (Fluxarm.Icache.cov_classified ic, cc.cc_block_hits + cc.cc_edge_hits)
        | None -> ([||], 0))
  in
  { Fuzzcov.Engine.ex_cov; ex_hits; ex_crash = crash }

let fuzzcov_pass ~(spec : Fuzzcov.Engine.spec) ~expect =
  Spans.reset ();
  let t0 = Spans.now_ns () in
  let module E = Fuzzcov.Engine in
  let gens = Array.map E.decode_gen expect in
  let reg = Snapshot.Registry.create () in
  let virgin : E.virgin = Hashtbl.create 4096 in
  let corpus = ref [||] in
  let pools = ref [] in
  let cells = ref [] in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  Verify.Violation.with_enabled (E.contracts_for spec.fc_board) (fun () ->
      Array.iteri
        (fun g gs ->
          match gs with
          | None -> problem "generation %d: undecodable record" g
          | Some (gs : E.gen_summary) ->
            let cands =
              Array.init spec.fc_pop (fun s -> E.candidate spec ~corpus:!corpus ~gen:g ~slot:s)
            in
            let cell reg s =
              let i = (g * spec.fc_pop) + s in
              let e =
                Spans.span ~cell:(-1) "snapshot.boot" (fun () ->
                    boot_board reg spec.fc_board ~make:E.make_board)
              in
              let k = e.Snapshot.Registry.re_payload in
              Spans.span ~cell:i "cell" (fun () ->
                  Spans.span ~cell:i "snapshot.restore" (fun () ->
                      Snapshot.restore e.Snapshot.Registry.re_target e.Snapshot.Registry.re_snap);
                  let c0 = probe ~cell:i (fun () -> board_counts k) in
                  Spans.span ~cell:i "fork.reseed" (fun () ->
                      k.Instance.reseed ((i + 1) * 0x9E3779B1));
                  let x = run_input ~cell:i k cands.(s) in
                  let c1 = probe ~cell:i (fun () -> board_counts k) in
                  (x, sub c1 c0))
            in
            let results, wall, _ =
              pool ~jobs:1 ~batch:1 ~cells:spec.fc_pop ~init:(fun _ -> reg) ~cell
            in
            pools := wall :: !pools;
            let pending = ref gs.gs_entries in
            Array.iteri
              (fun s ((x : E.exec), counts) ->
                ignore (E.merge virgin x.ex_cov);
                let record =
                  match !pending with
                  | en :: rest
                    when en.E.en_input = cands.(s) && en.en_cov = x.ex_cov && en.en_hits = x.ex_hits
                    ->
                    pending := rest;
                    Printf.sprintf "%d %d entry %d" g s en.en_id
                  | _ -> Printf.sprintf "%d %d" g s
                in
                cells := { id = (g * spec.fc_pop) + s; record; counts } :: !cells)
              results;
            if !pending <> [] then
              problem "generation %d: %d accepted entries not reproduced" g (List.length !pending);
            let blocks, edges, bits = E.lit virgin in
            if (blocks, edges, bits) <> (gs.gs_blocks, gs.gs_edges, gs.gs_bits) then
              problem "generation %d: coverage %d/%d/%d, campaign %d/%d/%d" g blocks edges bits
                gs.gs_blocks gs.gs_edges gs.gs_bits;
            corpus := Array.append !corpus (Array.of_list gs.gs_entries);
            if (g + 1) mod E.minimize_every = 0 then corpus := E.minimize !corpus)
        gens);
  finish ~t0 ~pools:(List.rev !pools) ~steals:0 ~problems:(List.rev !problems)
    (Array.of_list (List.rev !cells))

(* --- fabric cells: the calls Fabric.Powerloss.run_cell makes --- *)

(* Model counts of a fabric cell, summed over its boards. A reboot
   restores a board's kernel counters and the domain's cycle counter to the
   pristine image, so a board's counts are banked when it loses power and
   re-based when it comes back, and the cycles of a global tick in which a
   board reboots are not counted. *)
type fabric_acc = {
  mutable banked : counts;
  base : counts array;  (** per board, since it last came up *)
  mutable cycles : int;
}

let fabric_probe ~cell (topo : Fabric.Topology.t) j =
  Spans.span ~cell "probe" (fun () ->
      board_counts topo.Fabric.Topology.nodes.(j).Fabric.Topology.nd_k)

let fabric_acc ~cell (topo : Fabric.Topology.t) =
  {
    banked = zero;
    base = Array.init (Array.length topo.Fabric.Topology.nodes) (fabric_probe ~cell topo);
    cycles = 0;
  }

let fabric_bank ~cell acc topo j =
  acc.banked <- add acc.banked (sub (fabric_probe ~cell topo j) acc.base.(j))

(* Step one global tick, keeping the accounts. *)
let fabric_step ~cell acc (topo : Fabric.Topology.t) ~reseed_of =
  let module T = Fabric.Topology in
  let dead = Array.map (fun (n : T.node) -> n.T.nd_outage > 0) topo.T.nodes in
  let c0 = Cycles.read Cycles.global in
  Spans.span ~cell "fabric.step" (fun () -> T.step topo ~reseed_of);
  let c1 = Cycles.read Cycles.global in
  let rebooted = ref false in
  Array.iteri
    (fun j (n : T.node) ->
      match (dead.(j), n.T.nd_outage > 0) with
      | true, false ->
        rebooted := true;
        acc.base.(j) <- fabric_probe ~cell topo j
      | false, true -> fabric_bank ~cell acc topo j
      | _ -> ())
    topo.T.nodes;
  if not !rebooted then acc.cycles <- acc.cycles + (c1 - c0)

let fabric_pass ~(spec : Fabric.Campaign.spec) ~expect =
  Spans.reset ();
  Cycles.reset Cycles.global;
  let t0 = Spans.now_ns () in
  let module P = Fabric.Powerloss in
  let module T = Fabric.Topology in
  let coords = Fabric.Campaign.cell_coords spec in
  let init _ : (string, P.env) Hashtbl.t = Hashtbl.create 4 in
  let cell envs i =
    let plan_name, cut = coords i in
    let env =
      match Hashtbl.find_opt envs plan_name with
      | Some env -> env
      | None ->
        let env =
          Spans.span ~cell:(-1) "snapshot.boot" (fun () ->
              P.make_env ~plan:(P.plan_named plan_name) ~seed:spec.fb_seed ())
        in
        Hashtbl.add envs plan_name env;
        env
    in
    let topo = env.P.ev_topo in
    Spans.span ~cell:i "cell" (fun () ->
        let cell_seed =
          P.mix (P.mix spec.fb_seed cut) (Hashtbl.hash env.P.ev_plan.P.pl_name)
        in
        Spans.span ~cell:i "snapshot.restore" (fun () -> T.restore topo env.P.ev_base);
        let acc = fabric_acc ~cell:i topo in
        let frames0 = Obs.Metrics.host_read "fabric/frames_sent" in
        let reseed_of id = P.mix cell_seed (id + 101) in
        Spans.span ~cell:i "fabric.configure" (fun () ->
            Fabric.Link.configure topo.T.link ~faults:env.P.ev_plan.P.pl_faults ~seed:cell_seed;
            Fabric.Ota.reset env.P.ev_stats;
            Array.iter
              (fun (n : T.node) -> n.T.nd_k.Instance.reseed (reseed_of n.T.nd_id))
              topo.T.nodes);
        let board = cut mod Fabric.Deploy.node_count in
        let step () = fabric_step ~cell:i acc topo ~reseed_of in
        for t = 0 to spec.fb_horizon - 1 do
          if t = cut then begin
            let was_up = topo.T.nodes.(board).T.nd_outage = 0 in
            Spans.span ~cell:i "fabric.cut" (fun () -> T.cut topo board ~outage:spec.fb_outage);
            if was_up then fabric_bank ~cell:i acc topo board
          end;
          step ()
        done;
        let extra = ref (spec.fb_outage + 3) in
        while !extra > 0 || Array.exists (fun (n : T.node) -> n.T.nd_outage > 0) topo.T.nodes do
          if !extra > 0 then decr extra;
          step ()
        done;
        let oc = Spans.span ~cell:i "fabric.check" (fun () -> Fabric.Deploy.check topo) in
        let stats = env.P.ev_stats in
        let why = P.containment_why oc stats in
        let fp = Spans.span ~cell:i "fabric.fingerprint" (fun () -> T.fingerprint topo) in
        let c =
          {
            Fabric.Campaign.fc_index = i;
            fc_plan = plan_name;
            fc_cut = cut;
            fc_board = board;
            fc_class = P.classify oc stats;
            fc_fsck = oc.Fabric.Deploy.oc_fsck;
            fc_ok = why = "";
            fc_why = why;
            fc_silent = oc.Fabric.Deploy.oc_silent;
            fc_commits = stats.Fabric.Ota.ot_commits;
            fc_rollbacks = stats.Fabric.Ota.ot_rollbacks;
            fc_readings =
              List.fold_left
                (fun a (_, got) -> a + P.distinct_readings got)
                0 oc.Fabric.Deploy.oc_got;
            fc_fp = fp;
          }
        in
        Array.iteri (fun j _ -> fabric_bank ~cell:i acc topo j) topo.T.nodes;
        let counts =
          {
            acc.banked with
            model_cycles = acc.cycles;
            frames = Obs.Metrics.host_read "fabric/frames_sent" - frames0;
            reboots = Array.fold_left (fun a (n : T.node) -> a + n.T.nd_reboots) 0 topo.T.nodes;
          }
        in
        { id = i; record = Fabric.Campaign.encode_cell c; counts })
  in
  let cells, wall, steals =
    pool ~jobs:1 ~batch:4 ~cells:(Fabric.Campaign.cell_count spec) ~init ~cell
  in
  finish ~t0 ~pools:[ wall ] ~steals ~problems:(mismatches ~expect cells) cells

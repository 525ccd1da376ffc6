(* Per-layer metrics from traced passes.

   A cell's time is its "cell" span minus the probes inside it. A layer's
   time is the sum of its spans; the layer spans of a cell do not nest, so a
   layer's self time is its span time, and whatever of a cell no layer span
   covers is unattributed. Host times come from every traced pass; model
   counts from the first (the run checks that the second repeats them).
   Host times are divided by each pass's calibrated slowdown. *)

type metric = { name : string; value : float; unit : string }

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let names =
  [
    ("pool.busy_frac", "frac"); ("pool.idle_ms_per_worker", "ms"); ("pool.steals", "count");
    ("snapshot.restore_us", "us"); ("snapshot.restore_words", "words");
    ("snapshot.share", "frac");
    ("loader.load_us", "us"); ("loader.words_per_load", "words"); ("loader.share", "frac");
    ("kernel.run_us", "us"); ("kernel.words_per_cell", "words"); ("kernel.share", "frac");
    ("kernel.syscalls_per_cell", "count"); ("kernel.ticks_per_cell", "count");
    ("kernel.ns_per_syscall", "ns"); ("kernel.model_cycles_per_cell", "cycles");
    ("mpu.setup_calls_per_cell", "count"); ("mpu.setup_model_cycles_per_cell", "cycles");
    ("bus.accesses_per_cell", "count"); ("bus.decision_hit_rate", "frac");
    ("mc.instrs_per_exec", "count"); ("mc.mips", "Minstr/s"); ("mc.icache_hit_rate", "frac");
    ("mc.link_rate", "frac"); ("mc.avg_trace_len", "blocks");
    ("coverage.map_us", "us"); ("coverage.share", "frac");
    ("verify.isolation_us", "us"); ("verify.share", "frac");
    ("store.append_us", "us"); ("store.share", "frac");
    ("fabric.restore_us", "us"); ("fabric.step_us", "us"); ("fabric.check_us", "us");
    ("fabric.frames_per_cell", "count"); ("fabric.reboots_per_cell", "count");
    ("cell.p50_us", "us"); ("cell.p99_us", "us"); ("cell.unattributed_frac", "frac");
    ("trace.overhead_pct", "%");
  ]

(* Spans that are not layer work inside a cell. *)
let not_layer = [ "cell"; "probe"; "snapshot.boot" ]

let ratio a b = if b = 0. then 0. else a /. b

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

type layer_sum = { mutable ns : float; mutable words : float; mutable calls : int }

let compute ~jobs ~untraced_rate (passes : Traced.pass list) =
  let by_name : (string, layer_sum) Hashtbl.t = Hashtbl.create 16 in
  let get name =
    match Hashtbl.find_opt by_name name with
    | Some s -> s
    | None ->
      let s = { ns = 0.; words = 0.; calls = 0 } in
      Hashtbl.add by_name name s;
      s
  in
  let cell_times = ref [] in
  let busy_frac = ref [] and idle_ms = ref [] and steals = ref [] and traced_rates = ref [] in
  List.iter
    (fun (p : Traced.pass) ->
      let cell_span : (int, float) Hashtbl.t = Hashtbl.create 4096 in
      let probes : (int, float) Hashtbl.t = Hashtbl.create 4096 in
      let busy = Array.make (max 1 jobs) 0. in
      List.iter
        (fun (s : Spans.span) ->
          let d = float_of_int (Spans.dur_ns s) /. p.factor in
          let bump tbl =
            Hashtbl.replace tbl s.cell (d +. Option.value ~default:0. (Hashtbl.find_opt tbl s.cell))
          in
          (match s.name with
          | "cell" -> bump cell_span
          | "probe" -> bump probes
          | _ -> ());
          if (s.name = "cell" || s.name = "snapshot.boot") && s.worker < Array.length busy then
            busy.(s.worker) <- busy.(s.worker) +. d;
          if s.cell >= 0 && not (List.mem s.name not_layer) then begin
            let l = get s.name in
            l.ns <- l.ns +. d;
            l.words <- l.words +. s.words;
            l.calls <- l.calls + 1
          end)
        p.spans;
      Hashtbl.iter
        (fun c d ->
          let probe = Option.value ~default:0. (Hashtbl.find_opt probes c) in
          cell_times := (d -. probe) :: !cell_times)
        cell_span;
      let pool_wall = float_of_int (List.fold_left ( + ) 0 p.pool_wall_ns) /. p.factor in
      let total_busy = Array.fold_left ( +. ) 0. busy in
      busy_frac := ratio total_busy (float_of_int jobs *. pool_wall) :: !busy_frac;
      idle_ms :=
        (Array.fold_left (fun a b -> a +. (pool_wall -. b)) 0. busy /. float_of_int jobs /. 1e6)
        :: !idle_ms;
      steals := float_of_int p.steals :: !steals;
      traced_rates :=
        (float_of_int (Array.length p.cells) /. (float_of_int p.wall_ns /. p.factor /. 1e9))
        :: !traced_rates)
    passes;
  let mean xs = ratio (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs)) in
  let ncells = float_of_int (List.length !cell_times) in
  let cell_ns = List.fold_left ( +. ) 0. !cell_times in
  let layer name =
    Option.value ~default:{ ns = 0.; words = 0.; calls = 0 } (Hashtbl.find_opt by_name name)
  in
  let us_per_cell name = (layer name).ns /. 1e3 /. ncells in
  let share name = ratio (layer name).ns cell_ns in
  let attributed = Hashtbl.fold (fun _ l a -> a +. l.ns) by_name 0. in
  (* model counts: the first pass *)
  let first = List.hd passes in
  let total =
    Array.fold_left (fun a (c : Traced.cell) -> Traced.add a c.counts) Traced.zero first.cells
  in
  let n1 = float_of_int (Array.length first.cells) in
  let per_cell v = float_of_int v /. n1 in
  let f = float_of_int in
  let run_s = (layer "kernel.run").ns /. 1e9 in
  let sorted = Array.of_list (List.sort compare !cell_times) in
  let values =
    [
      ("pool.busy_frac", mean !busy_frac);
      ("pool.idle_ms_per_worker", mean !idle_ms);
      ("pool.steals", mean !steals);
      ("snapshot.restore_us", us_per_cell "snapshot.restore");
      ("snapshot.restore_words", (layer "snapshot.restore").words /. ncells);
      ("snapshot.share", share "snapshot.restore");
      ("loader.load_us", us_per_cell "loader.load");
      ("loader.words_per_load", ratio (layer "loader.load").words (f (layer "loader.load").calls));
      ("loader.share", share "loader.load");
      ("kernel.run_us", us_per_cell "kernel.run");
      ("kernel.words_per_cell", (layer "kernel.run").words /. ncells);
      ("kernel.share", share "kernel.run");
      ("kernel.syscalls_per_cell", per_cell total.syscalls);
      ("kernel.ticks_per_cell", per_cell total.ticks);
      ( "kernel.ns_per_syscall",
        (* per traced pass: run time over the syscalls the first pass counted *)
        ratio ((layer "kernel.run").ns /. f (List.length passes)) (f total.syscalls) );
      ("kernel.model_cycles_per_cell", per_cell total.model_cycles);
      ("mpu.setup_calls_per_cell", per_cell total.mpu_calls);
      ("mpu.setup_model_cycles_per_cell", per_cell total.mpu_cycles);
      ("bus.accesses_per_cell", per_cell (total.bus_hits + total.bus_misses));
      ("bus.decision_hit_rate", ratio (f total.bus_hits) (f (total.bus_hits + total.bus_misses)));
      ("mc.instrs_per_exec", per_cell total.instrs);
      ( "mc.mips",
        ratio (f total.instrs *. f (List.length passes)) run_s /. 1e6 );
      ("mc.icache_hit_rate", ratio (f total.ic_hits) (f (total.ic_hits + total.ic_misses)));
      ("mc.link_rate", ratio (f total.link_hits) (f (total.link_hits + total.link_misses)));
      ("mc.avg_trace_len", ratio (f total.trace_blocks) (f total.traces));
      ("coverage.map_us", us_per_cell "coverage.map");
      ("coverage.share", share "coverage.map");
      ("verify.isolation_us", us_per_cell "verify.isolation");
      ("verify.share", share "verify.isolation");
      ("store.append_us", us_per_cell "store.append");
      ("store.share", share "store.append");
      ( "fabric.restore_us",
        (* the fork back to tick 0: topology restore, link and OTA reset *)
        if (layer "fabric.configure").calls = 0 then 0.
        else us_per_cell "snapshot.restore" +. us_per_cell "fabric.configure" );
      ( "fabric.step_us",
        ratio ((layer "fabric.step").ns /. 1e3) (f (layer "fabric.step").calls) );
      ("fabric.check_us", us_per_cell "fabric.check");
      ("fabric.frames_per_cell", per_cell total.frames);
      ("fabric.reboots_per_cell", per_cell total.reboots);
      ("cell.p50_us", percentile sorted 0.50 /. 1e3);
      ("cell.p99_us", percentile sorted 0.99 /. 1e3);
      ("cell.unattributed_frac", 1. -. ratio attributed cell_ns);
      ( "trace.overhead_pct",
        100. *. (untraced_rate -. Stat.median !traced_rates) /. untraced_rate );
    ]
  in
  let layers =
    Hashtbl.fold (fun name l acc -> (name, l) :: acc) by_name []
    |> List.sort (fun (_, a) (_, b) -> compare b.ns a.ns)
    |> List.map (fun (name, l) ->
           Printf.sprintf "  %-20s %9.1f us/cell %9.0f words/cell %6.1f%%  (%d calls)" name
             (l.ns /. 1e3 /. ncells) (l.words /. ncells) (100. *. ratio l.ns cell_ns) l.calls)
  in
  let summary =
    Printf.sprintf "%d traced cells over %d passes; cell time %.1f us/cell\n%s"
      (List.length !cell_times) (List.length passes) (cell_ns /. 1e3 /. ncells)
      (String.concat "\n" layers)
  in
  ( List.map
      (fun (name, unit) -> { name; value = List.assoc name values; unit })
      names,
    summary )

(* The kernel: process creation, syscall dispatch, scheduling, faults, and
   end-to-end isolation, across all board configurations. *)

open Ticktock
open Apps.App_dsl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let load (k : Instance.t) ?(min_ram = 2048) ?(grant_reserve = 1024) ?(heap_headroom = 2048)
    ~name script =
  match
    k.Instance.load ~name ~payload:(name ^ "-payload") ~program:(to_program script) ~min_ram
      ~grant_reserve ~heap_headroom
  with
  | Ok pid -> pid
  | Error e -> Alcotest.failf "load failed: %a" Kerror.pp e

let run_one ?(max_ticks = 500) (k : Instance.t) script =
  let pid = load k ~name:"t" script in
  k.Instance.run ~max_ticks;
  (pid, k)

let output (k : Instance.t) pid = Option.value ~default:"" (k.Instance.proc_output pid)
let exit_code (k : Instance.t) pid = k.Instance.proc_exit pid

let ticktock () = Boards.instance_ticktock_arm ()

let test_hello () =
  let pid, k = run_one (ticktock ()) (let* () = print "hi\n" in return 0) in
  Alcotest.(check string) "output" "hi\n" (output k pid);
  Alcotest.(check (option int)) "exit" (Some 0) (exit_code k pid)

let test_exit_code () =
  let pid, k = run_one (ticktock ()) (return 7) in
  Alcotest.(check (option int)) "exit code" (Some 7) (exit_code k pid)

let test_memop_queries () =
  let k = ticktock () in
  let pid =
    load k ~name:"q"
      (let* ms = memory_start in
       let* ab = memory_end in
       let* fs = flash_start in
       let* fe = flash_end in
       let* gb = grant_begins in
       let* () =
         printf "%b %b %b %b" (ab > ms) (fe > fs) (gb > ab) (Layout.in_flash fs)
       in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "layout sane" "true true true true" (output k pid)

let test_brk_syscall () =
  let k = ticktock () in
  let pid =
    load k ~name:"b"
      (let* ab = memory_end in
       let* r = sbrk 512 in
       let* ab' = memory_end in
       let* () = printf "%b %b" (r <> Userland.failure) (ab' > ab) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "heap grew" "true true" (output k pid)

let test_brk_failure_returns_failure () =
  let k = ticktock () in
  let pid =
    load k ~name:"bf"
      (let* ms = memory_start in
       let* r = brk (ms - 4) in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "bad brk refused, process survives" "true" (output k pid)

let test_allow_syscalls () =
  let k = ticktock () in
  let pid =
    load k ~name:"al"
      (let* ms = memory_start in
       let* ok1 = allow_rw ~driver:2 ~addr:ms ~len:64 in
       let* fs = flash_start in
       let* ok2 = allow_ro ~driver:1 ~addr:fs ~len:64 in
       let* bad = allow_rw ~driver:2 ~addr:fs ~len:64 in
       let* () =
         printf "%b %b %b" (ok1 = Userland.success) (ok2 = Userland.success)
           (bad = Userland.failure)
       in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "allow validation" "true true true" (output k pid)

let test_alarm_yield () =
  let k = ticktock () in
  let pid =
    load k ~name:"tm"
      (let* _ = subscribe ~driver:0 ~upcall_id:0 in
       let* _ = command ~driver:0 ~cmd:1 ~arg1:5 () in
       let* r = yield in
       let* () = printf "woke=%d" r in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "alarm upcall delivered" "woke=1" (output k pid)

let test_unknown_driver () =
  let k = ticktock () in
  let pid =
    load k ~name:"ud"
      (let* r = command ~driver:99 ~cmd:0 () in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "unknown driver fails cleanly" "true" (output k pid)

let test_fault_isolation () =
  (* one process faults; its neighbour keeps running *)
  let k = ticktock () in
  let victim =
    load k ~name:"victim"
      (let* () = print "victim alive\n" in
       return 0)
  in
  let bad =
    load k ~name:"bad"
      (let* _ = load8 (Range.start Layout.kernel_sram) in
       let* () = print "read kernel!\n" in
       return 1)
  in
  k.Instance.run ~max_ticks:200;
  check_bool "attacker faulted" true (k.Instance.proc_faulted bad);
  Alcotest.(check string) "attacker produced nothing" "" (output k bad);
  Alcotest.(check (option int)) "victim unaffected" (Some 0) (exit_code k victim)

let test_preemption_interleaves () =
  (* two compute-heavy processes share the CPU round-robin *)
  let k = ticktock () in
  let spin name =
    load k ~name
      (let* () = repeat 10 (fun () -> let* _ = compute 200 in return ()) in
       let* () = print (name ^ " done\n") in
       return 0)
  in
  let a = spin "a" in
  let b = spin "b" in
  k.Instance.run ~max_ticks:2000;
  Alcotest.(check (option int)) "a finished" (Some 0) (exit_code k a);
  Alcotest.(check (option int)) "b finished" (Some 0) (exit_code k b)

let test_process_memory_rw () =
  let k = ticktock () in
  let pid =
    load k ~name:"rw"
      (let* ms = memory_start in
       let* _ = store32 (ms + 64) 0xFEEDC0DE in
       let* v = load32 (ms + 64) in
       let* () = printf "%b" (v = 0xFEEDC0DE) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "own memory rw" "true" (output k pid)

let test_flash_read_only () =
  let k = ticktock () in
  let pid =
    load k ~name:"fro"
      (let* fs = flash_start in
       let* _ = load32 fs in
       let* _ = store8 fs 0 in
       let* () = print "wrote flash!" in
       return 1)
  in
  k.Instance.run ~max_ticks:100;
  check_bool "flash write faults" true (k.Instance.proc_faulted pid)

let test_isolation_ok_all_boards () =
  (* TickTock kernels: the hardware-enforced view is exactly bounded by the
     kernel's logical view. The monolithic ARM kernels (upstream AND
     patched) fail this check: Figure 4a's `app_size * 8 / region_size + 1`
     always enables one extra subregion, so the hardware grants more than
     the kernel believes — the §3.2 disagreement, observable end to end. *)
  List.iter
    (fun (name, make) ->
      let k = make () in
      let pid = load k ~name:"iso" (return 0) in
      let expected =
        match name with
        | "tock-arm-upstream" | "tock-arm-patched" -> false
        | _ -> true
      in
      check_bool
        (name ^ ": hardware-vs-logical agreement")
        expected
        (k.Instance.proc_isolation_ok pid))
    Boards.all_instances

let test_hello_all_boards () =
  List.iter
    (fun (name, make) ->
      let k = make () in
      let pid = load k ~name:"hi" (let* () = print "ok" in return 0) in
      k.Instance.run ~max_ticks:100;
      Alcotest.(check string) (name ^ " output") "ok" (output k pid);
      Alcotest.(check (option int)) (name ^ " exit") (Some 0) (exit_code k pid))
    Boards.all_instances

let test_mem_stats () =
  let k = ticktock () in
  let pid = load k ~name:"ms" (return 0) in
  match k.Instance.proc_mem_stats pid with
  | Some st ->
    check_bool "total = app + grant + unused" true
      (st.Instance.total = st.Instance.app + st.Instance.grant + st.Instance.unused);
    check_bool "grant covers stored state" true (st.Instance.grant >= 64)
  | None -> Alcotest.fail "stats missing"

let test_console_logs_faults () =
  let k = ticktock () in
  let _ =
    load k ~name:"crash" (let* _ = store8 0 1 in return 0)
  in
  k.Instance.run ~max_ticks:100;
  check_bool "kernel console mentions the fault" true
    (String.length (k.Instance.console ()) > 0)

let test_many_processes () =
  let k = ticktock () in
  let pids =
    List.init 8 (fun i ->
        load k ~name:(Printf.sprintf "p%d" i)
          (let* () = printf "p%d" i in
           return i))
  in
  k.Instance.run ~max_ticks:1000;
  List.iteri
    (fun i pid -> Alcotest.(check (option int)) "each exits with its index" (Some i)
        (exit_code k pid))
    pids;
  check_int "ticks advanced" (k.Instance.ticks ()) (k.Instance.ticks ())

(* --- the idle tick and the upcall queue, through the kernel directly --- *)

module K = Boards.Ticktock_arm

let create_proc k ~name script =
  match K.create_process k ~name ~payload:name ~program:(to_program script) ~min_ram:2048 () with
  | Ok p -> p
  | Error e -> Alcotest.failf "create_process: %a" Kerror.pp e

let test_pending_upcalls_rotate_until_yield () =
  (* three upcalls queued on a process that computes for several ticks
     before it yields. Nothing is delivered to a process that has not
     yielded: each tick moves the queue's head to the back, and a yield
     takes whatever is at the head then. A yield that finds an upcall
     returns at once, so the process never sits in [Yielded] here. *)
  let _, k = Boards.make_ticktock_arm () in
  let p =
    create_proc k ~name:"rot"
      (let* () = repeat 300 (fun () -> let* _ = compute 50 in return ()) in
       let* a = yield in
       let* b = yield in
       let* c = yield in
       let* () = printf "%d,%d,%d" a b c in
       return 0)
  in
  List.iter (fun arg -> Queue.push (0, arg) p.Process.pending_upcalls) [ 1; 2; 3 ];
  let queued () = List.of_seq (Seq.map snd (Queue.to_seq p.Process.pending_upcalls)) in
  let model = ref [ 1; 2; 3 ] and delivered = ref [] and busy_ticks = ref 0 in
  while !model <> [] && !busy_ticks < 200 do
    check_bool "not parked while upcalls are queued" false (p.Process.state = Process.Yielded);
    K.run k ~max_ticks:1;
    (match !model with x :: rest -> model := rest @ [ x ] | [] -> ());
    let taken = List.length !model - Queue.length p.Process.pending_upcalls in
    if taken = 0 then incr busy_ticks;
    List.iteri (fun i x -> if i < taken then delivered := !delivered @ [ x ]) !model;
    model := List.filteri (fun i _ -> i >= taken) !model;
    Alcotest.(check (list int)) "queue in rotation order" !model (queued ())
  done;
  check_bool "the process ran several ticks before it yielded" true (!busy_ticks >= 3);
  K.run k ~max_ticks:100;
  Alcotest.(check string) "yields took the heads in rotation order"
    (String.concat "," (List.map string_of_int !delivered))
    (Option.value ~default:"" ((K.instance k).Instance.proc_output p.Process.pid))

let test_idle_tick_allocation () =
  (* the common state of a Tock board: every process waits on an alarm
     and nothing else happens. An idle tick must not allocate per process
     or per capsule — what is left is Stdlib's Hashtbl.iter/fold. *)
  let caps, _ = Capsules.Board_set.standard () in
  let _, k = Boards.make_ticktock_arm ~capsules:caps () in
  let p =
    create_proc k ~name:"sleeper"
      (let* _ = command ~driver:0 ~cmd:1 ~arg1:1_000_000 () in
       let* _ = yield in
       return 0)
  in
  K.run k ~max_ticks:10;
  check_bool "the process is waiting on its alarm" true (p.Process.state = Process.Yielded);
  let ticks = 10_000 in
  let t0 = K.ticks k in
  let before = Gc.minor_words () in
  K.run k ~max_ticks:ticks;
  let words = Gc.minor_words () -. before in
  check_int "every tick ran" (t0 + ticks) (K.ticks k);
  let per_tick = words /. float_of_int ticks in
  if per_tick > 8.0 then Alcotest.failf "idle tick allocates %.1f minor words (limit 8)" per_tick

let suite =
  [
    Alcotest.test_case "hello world" `Quick test_hello;
    Alcotest.test_case "exit codes" `Quick test_exit_code;
    Alcotest.test_case "memop queries" `Quick test_memop_queries;
    Alcotest.test_case "brk syscall" `Quick test_brk_syscall;
    Alcotest.test_case "bad brk survives" `Quick test_brk_failure_returns_failure;
    Alcotest.test_case "allow syscalls" `Quick test_allow_syscalls;
    Alcotest.test_case "alarm + yield" `Quick test_alarm_yield;
    Alcotest.test_case "unknown driver" `Quick test_unknown_driver;
    Alcotest.test_case "fault isolation between processes" `Quick test_fault_isolation;
    Alcotest.test_case "preemption interleaves" `Quick test_preemption_interleaves;
    Alcotest.test_case "process reads/writes own RAM" `Quick test_process_memory_rw;
    Alcotest.test_case "flash is read-only" `Quick test_flash_read_only;
    Alcotest.test_case "isolation_ok on all boards" `Quick test_isolation_ok_all_boards;
    Alcotest.test_case "hello on all boards" `Quick test_hello_all_boards;
    Alcotest.test_case "memory stats" `Quick test_mem_stats;
    Alcotest.test_case "kernel console logs faults" `Quick test_console_logs_faults;
    Alcotest.test_case "many processes" `Quick test_many_processes;
    Alcotest.test_case "pending upcalls rotate until yield" `Quick
      test_pending_upcalls_rotate_until_yield;
    Alcotest.test_case "idle tick allocation" `Quick test_idle_tick_allocation;
  ]

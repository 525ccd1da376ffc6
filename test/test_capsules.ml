(* The capsule layer: drivers behind the mediated process handle. *)

open Ticktock
open Apps.App_dsl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let board ?rng_seed () =
  let caps, devices = Capsules.Board_set.standard ?rng_seed () in
  let k = Boards.instance_ticktock_arm ~capsules:caps () in
  (k, devices)

let load (k : Instance.t) ~name script =
  match
    k.Instance.load ~name ~payload:name ~program:(to_program script) ~min_ram:2048
      ~grant_reserve:1024 ~heap_headroom:2048
  with
  | Ok pid -> pid
  | Error e -> Alcotest.failf "load: %a" Kerror.pp e

let output (k : Instance.t) pid = Option.value ~default:"" (k.Instance.proc_output pid)

let test_virtual_alarm_single () =
  let k, _ = board () in
  let pid =
    load k ~name:"va"
      (let* _ = subscribe ~driver:4 ~upcall_id:0 in
       let* deadline = command ~driver:4 ~cmd:1 ~arg1:3 () in
       let* woke = yield in
       let* () = printf "fired=%b" (woke = deadline) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "upcall carries the deadline" "fired=true" (output k pid)

let test_virtual_alarm_multiplexes () =
  (* three processes with different deadlines share one time source *)
  let k, _ = board () in
  let mk name dt =
    load k ~name
      (let* _ = subscribe ~driver:4 ~upcall_id:0 in
       let* _ = command ~driver:4 ~cmd:1 ~arg1:dt () in
       let* _ = yield in
       let* now = command ~driver:4 ~cmd:2 () in
       let* () = printf "woke@>=%b" (now >= dt) in
       return 0)
  in
  let a = mk "a" 2 and b = mk "b" 6 and c = mk "c" 4 in
  k.Instance.run ~max_ticks:200;
  List.iter
    (fun pid -> Alcotest.(check string) "woke after its deadline" "woke@>=true" (output k pid))
    [ a; b; c ]

let test_virtual_alarm_cancel () =
  let k, _ = board () in
  let pid =
    load k ~name:"vc"
      (let* _ = command ~driver:4 ~cmd:1 ~arg1:50 () in
       let* r = command ~driver:4 ~cmd:3 () in
       let* () = printf "cancelled=%b" (r = Userland.success) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "cancel works" "cancelled=true" (output k pid)

(* The alarm capsule driven directly, through stand-in process handles
   that log every upcall as (pid, argument). *)
let alarm_rig () =
  let cap, st = Capsules.Virtual_alarm.capsule () in
  let fired = ref [] in
  let handle pid =
    {
      Capsule_intf.ph_pid = pid;
      ph_name = Printf.sprintf "p%d" pid;
      ph_memory_start = (fun () -> 0);
      ph_allowed_ro = (fun () -> None);
      ph_allowed_rw = (fun () -> None);
      ph_read_byte = (fun _ -> Error Kerror.Not_supported);
      ph_write_byte = (fun _ _ -> Error Kerror.Not_supported);
      ph_grant = (fun ~size:_ ~align:_ -> Error Kerror.Not_supported);
      ph_schedule_upcall = (fun ~upcall_id:_ ~arg -> fired := !fired @ [ (pid, arg) ]);
      ph_subscribed = (fun () -> Some 0);
    }
  in
  let set pid dt = cap.Capsule_intf.cap_command (handle pid) ~cmd:1 ~arg1:dt ~arg2:0 in
  let tick now = cap.Capsule_intf.cap_tick ~now in
  (set, tick, fired, st)

let pairs = Alcotest.(list (pair int int))

let test_alarm_same_deadline_in_set_order () =
  let set, tick, fired, st = alarm_rig () in
  let d3 = set 3 5 in
  let d1 = set 1 5 in
  let d2 = set 2 5 in
  check_bool "one deadline" true (d1 = d3 && d2 = d3);
  tick 4;
  Alcotest.check pairs "nothing due before the deadline" [] !fired;
  tick 5;
  Alcotest.check pairs "equal deadlines fire in the order they were set"
    [ (3, d3); (1, d1); (2, d2) ] !fired;
  check_int "queue drained" 0 (Capsules.Virtual_alarm.outstanding st)

let test_alarm_due_at_now_fires () =
  let set, tick, fired, st = alarm_rig () in
  let late = set 1 9 in
  tick 2;
  let early = set 2 1 in
  check_int "deadline is now + dt" 3 early;
  tick 2;
  Alcotest.check pairs "not yet due" [] !fired;
  tick 3;
  Alcotest.check pairs "an alarm due exactly now fires on that tick" [ (2, early) ] !fired;
  check_int "the later alarm stays queued" 1 (Capsules.Virtual_alarm.outstanding st);
  tick late;
  Alcotest.check pairs "then the later one" [ (2, early); (1, late) ] !fired;
  check_int "both counted" 2 (Capsules.Virtual_alarm.fired st)

let test_console_write_reaches_uart () =
  let k, devices = board () in
  let msg = "hello uart" in
  let pid =
    load k ~name:"cw"
      (let* ms = memory_start in
       let* () =
         iter_list
           (fun (i, c) ->
             let* _ = store8 (ms + i) (Char.code c) in
             return ())
           (List.mapi (fun i c -> (i, c)) (List.init (String.length msg) (String.get msg)))
       in
       let* _ = allow_ro ~driver:5 ~addr:ms ~len:(String.length msg) in
       let* n = command ~driver:5 ~cmd:1 ~arg1:(String.length msg) () in
       let* () = printf "wrote=%d" n in
       return 0)
  in
  k.Instance.run ~max_ticks:200;
  Alcotest.(check string) "write count" "wrote=10" (output k pid);
  Alcotest.(check string) "bytes reached the device" msg
    (Mpu_hw.Uart.transcript devices.Capsules.Board_set.uart)

let test_console_write_bounded_by_allow () =
  (* asking to write more than was allowed only writes the allowed bytes *)
  let k, devices = board () in
  let _pid =
    load k ~name:"cb"
      (let* ms = memory_start in
       let* _ = store8 ms (Char.code 'x') in
       let* _ = allow_ro ~driver:5 ~addr:ms ~len:1 in
       let* _ = command ~driver:5 ~cmd:1 ~arg1:4096 () in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  check_int "only the allowed byte got out" 1
    (String.length (Mpu_hw.Uart.transcript devices.Capsules.Board_set.uart))

let test_console_read_rx () =
  let k, devices = board () in
  String.iter
    (fun c -> Mpu_hw.Uart.rx_push devices.Capsules.Board_set.uart (Char.code c))
    "ok!";
  let pid =
    load k ~name:"cr"
      (let* ms = memory_start in
       let* _ = allow_rw ~driver:5 ~addr:ms ~len:16 in
       let* n = command ~driver:5 ~cmd:2 ~arg1:16 () in
       let* b0 = load8 ms in
       let* () = printf "read=%d first=%c" n (Char.chr b0) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "rx drained into process memory" "read=3 first=o" (output k pid)

let test_led () =
  let k, devices = board () in
  let pid =
    load k ~name:"led"
      (let* n = command ~driver:6 ~cmd:0 () in
       let* _ = command ~driver:6 ~cmd:1 ~arg1:0 () in
       let* _ = command ~driver:6 ~cmd:3 ~arg1:0 () in
       let* _ = command ~driver:6 ~cmd:3 ~arg1:0 () in
       let* () = printf "leds=%d" n in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "count" "leds=4" (output k pid);
  check_int "on + 2 toggles = 3 edges" 3 (Mpu_hw.Gpio.toggles devices.Capsules.Board_set.gpio 0);
  check_bool "ends on" true (Mpu_hw.Gpio.out_level devices.Capsules.Board_set.gpio 0)

let test_button_upcall () =
  let k, devices = board () in
  let pid =
    load k ~name:"btn"
      (let* _ = subscribe ~driver:7 ~upcall_id:0 in
       let* _ = command ~driver:7 ~cmd:2 ~arg1:0 () in
       let* arg = yield in
       let* () = printf "button event %d" arg in
       return 0)
  in
  k.Instance.run ~max_ticks:20;
  (* press button 0 (gpio pin 8) and let the bottom half see the edge *)
  Mpu_hw.Gpio.set_input devices.Capsules.Board_set.gpio 8 true;
  k.Instance.run ~max_ticks:50;
  Alcotest.(check string) "press delivered: index 0, level 1" "button event 1" (output k pid)

let test_rng_fills_buffer () =
  let k, _ = board ~rng_seed:42 () in
  let k2, _ = board ~rng_seed:42 () in
  let script =
    let* ms = memory_start in
    let* _ = allow_rw ~driver:8 ~addr:ms ~len:8 in
    let* n = command ~driver:8 ~cmd:1 ~arg1:8 () in
    let* b0 = load8 ms in
    let* b1 = load8 (ms + 1) in
    let* () = printf "n=%d %02x%02x" n b0 b1 in
    return 0
  in
  let pid = load k ~name:"rng" script in
  let pid2 = load k2 ~name:"rng" script in
  k.Instance.run ~max_ticks:100;
  k2.Instance.run ~max_ticks:100;
  check_bool "filled 8 bytes" true (String.length (output k pid) > 4);
  Alcotest.(check string) "deterministic per seed" (output k pid) (output k2 pid2)

let test_rng_requires_allow () =
  let k, _ = board () in
  let pid =
    load k ~name:"rngf"
      (let* r = command ~driver:8 ~cmd:1 ~arg1:8 () in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "no buffer, no bytes" "true" (output k pid)

(* a service that takes the notify and then exits without replying: the
   waiting client must be woken with the peer-died error, not wedged *)
let test_ipc_peer_exit_wakes_waiter () =
  let k, _ = board () in
  let _service =
    load k ~name:"ghost_svc"
      (let* _ = subscribe ~driver:9 ~upcall_id:2 in
       let* _ = command ~driver:9 ~cmd:0 () in
       let* _ = yield in
       (* no cmd-3 reply: just exit mid-exchange *)
       return 0)
  in
  let client =
    load k ~name:"ghost_cli"
      (let* ms = memory_start in
       let* () = write_cstring ms "ghost_svc" in
       let* _ = allow_ro ~driver:9 ~addr:ms ~len:16 in
       let* srv = command ~driver:9 ~cmd:1 () in
       let* _ = subscribe ~driver:9 ~upcall_id:3 in
       let* _ = command ~driver:9 ~cmd:2 ~arg1:srv () in
       let* reply = yield in
       let* () = printf "woken=%b" (reply = Capsules.Ipc.peer_died) in
       return 0)
  in
  k.Instance.run ~max_ticks:300;
  Alcotest.(check string) "error upcall, not a wedge" "woken=true" (output k client)

let test_ipc_notify_roundtrip () =
  let k, _ = board () in
  (* service registers then sleeps; wakes on the client's notify and
     notifies back *)
  let service =
    load k ~name:"rot13_svc"
      (let* _ = subscribe ~driver:9 ~upcall_id:2 in
       let* _ = command ~driver:9 ~cmd:0 () in
       let* client_pid = yield in
       let* _ = command ~driver:9 ~cmd:3 ~arg1:client_pid () in
       let* () = printf "served client %d" client_pid in
       return 0)
  in
  let client =
    load k ~name:"rot13_cli"
      (let* ms = memory_start in
       (* write the service name, NUL-terminated, into the discover buffer *)
       let name = "rot13_svc" in
       let* () =
         iter_list
           (fun (i, c) ->
             let* _ = store8 (ms + i) (Char.code c) in
             return ())
           (List.mapi (fun i c -> (i, c)) (List.init (String.length name) (String.get name)))
       in
       let* _ = store8 (ms + String.length name) 0 in
       let* _ = allow_ro ~driver:9 ~addr:ms ~len:32 in
       let* svc_pid = command ~driver:9 ~cmd:1 () in
       if svc_pid = Userland.failure then
         let* () = print "discover failed" in
         return 1
       else
         let* _ = subscribe ~driver:9 ~upcall_id:3 in
         let* _ = command ~driver:9 ~cmd:2 ~arg1:svc_pid () in
         let* echo = yield in
         let* () = printf "service %d echoed %d" svc_pid echo in
         return 0)
  in
  k.Instance.run ~max_ticks:500;
  Alcotest.(check string) "service saw the client" ("served client " ^ string_of_int client)
    (output k service);
  Alcotest.(check string) "client got the echo"
    (Printf.sprintf "service %d echoed %d" service service)
    (output k client)

let test_ipc_shared_buffer () =
  let k, _ = board () in
  let service =
    load k ~name:"mem_svc"
      (let* _ = subscribe ~driver:9 ~upcall_id:2 in
       let* _ = command ~driver:9 ~cmd:0 () in
       let* client_pid = yield in
       (* read the first byte of the client's shared buffer *)
       let* b = command ~driver:9 ~cmd:4 ~arg1:client_pid ~arg2:0 () in
       let* () = printf "shared[0]=%d" b in
       return 0)
  in
  let _client =
    load k ~name:"mem_cli"
      (let* ms = memory_start in
       let* _ = store8 ms 77 in
       let* _ = allow_rw ~driver:9 ~addr:ms ~len:8 in
       (* discover via name *)
       let name = "mem_svc" in
       let* () =
         iter_list
           (fun (i, c) ->
             let* _ = store8 (ms + 16 + i) (Char.code c) in
             return ())
           (List.mapi (fun i c -> (i, c)) (List.init (String.length name) (String.get name)))
       in
       let* _ = store8 (ms + 16 + String.length name) 0 in
       let* _ = allow_ro ~driver:9 ~addr:(ms + 16) ~len:16 in
       let* svc_pid = command ~driver:9 ~cmd:1 () in
       let* _ = command ~driver:9 ~cmd:2 ~arg1:svc_pid () in
       return 0)
  in
  k.Instance.run ~max_ticks:500;
  Alcotest.(check string) "service read the client's shared byte" "shared[0]=77"
    (output k service)

let test_capsule_cannot_reach_unallowed_memory () =
  (* the mediated handle refuses addresses outside allowed buffers: a
     console write command on a buffer that was never allowed fails *)
  let k, devices = board () in
  let pid =
    load k ~name:"guard"
      (let* r = command ~driver:5 ~cmd:1 ~arg1:16 () in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "no allow, no read" "true" (output k pid);
  check_int "nothing leaked to the uart" 0
    (String.length (Mpu_hw.Uart.transcript devices.Capsules.Board_set.uart))

let test_unknown_capsule_driver_fails () =
  let k, _ = board () in
  let pid =
    load k ~name:"unk"
      (let* r = command ~driver:42 ~cmd:0 () in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "unknown driver" "true" (output k pid)

let suite =
  [
    Alcotest.test_case "virtual alarm: single" `Quick test_virtual_alarm_single;
    Alcotest.test_case "virtual alarm: multiplexing" `Quick test_virtual_alarm_multiplexes;
    Alcotest.test_case "virtual alarm: cancel" `Quick test_virtual_alarm_cancel;
    Alcotest.test_case "virtual alarm: equal deadlines in set order" `Quick
      test_alarm_same_deadline_in_set_order;
    Alcotest.test_case "virtual alarm: due at now fires" `Quick test_alarm_due_at_now_fires;
    Alcotest.test_case "console write -> uart" `Quick test_console_write_reaches_uart;
    Alcotest.test_case "console write bounded by allow" `Quick
      test_console_write_bounded_by_allow;
    Alcotest.test_case "console read <- uart rx" `Quick test_console_read_rx;
    Alcotest.test_case "led over gpio" `Quick test_led;
    Alcotest.test_case "button edge upcall" `Quick test_button_upcall;
    Alcotest.test_case "rng fills allowed buffer" `Quick test_rng_fills_buffer;
    Alcotest.test_case "rng requires allow" `Quick test_rng_requires_allow;
    Alcotest.test_case "ipc notify roundtrip" `Quick test_ipc_notify_roundtrip;
    Alcotest.test_case "ipc peer exit wakes waiter" `Quick test_ipc_peer_exit_wakes_waiter;
    Alcotest.test_case "ipc shared buffer" `Quick test_ipc_shared_buffer;
    Alcotest.test_case "handle blocks unallowed memory" `Quick
      test_capsule_cannot_reach_unallowed_memory;
    Alcotest.test_case "unknown capsule driver" `Quick test_unknown_capsule_driver_fails;
  ]

let test_process_console () =
  let k, devices = board () in
  let uart = devices.Capsules.Board_set.debug_uart in
  (* a long-lived process keeps the scheduler awake while we type *)
  let _ =
    load k ~name:"victim"
      (let* _ = subscribe ~driver:4 ~upcall_id:0 in
       let* () =
         repeat 20 (fun () ->
             let* _ = command ~driver:4 ~cmd:1 ~arg1:4 () in
             let* _ = yield in
             return ())
       in
       return 0)
  in
  String.iter (fun c -> Mpu_hw.Uart.rx_push uart (Char.code c)) "help\n";
  k.Instance.run ~max_ticks:8;
  String.iter (fun c -> Mpu_hw.Uart.rx_push uart (Char.code c)) "ps\nuptime\nbogus\n";
  k.Instance.run ~max_ticks:100;
  let out = Mpu_hw.Uart.transcript uart in
  let has needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length out && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "help responded" true (has "commands: ps uptime help");
  check_bool "ps lists the process" true (has "victim");
  check_bool "uptime responds" true (has "up ");
  check_bool "unknown command reported" true (has "unknown command")

let suite =
  suite @ [ Alcotest.test_case "process console over uart" `Quick test_process_console ]

(* --- edge cases --- *)

let test_alarm_replaces_outstanding () =
  let k, _ = board () in
  let pid =
    load k ~name:"replace"
      (let* _ = subscribe ~driver:4 ~upcall_id:0 in
       let* _ = command ~driver:4 ~cmd:1 ~arg1:50 () in
       (* a second set replaces the first: wake comes at ~3 ticks, not 50 *)
       let* d2 = command ~driver:4 ~cmd:1 ~arg1:3 () in
       let* woke = yield in
       let* now = command ~driver:4 ~cmd:2 () in
       let* () = printf "%b %b" (woke = d2) (now < 30) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "replacement wins" "true true" (output k pid)

let test_ipc_notify_dead_pid () =
  let k, _ = board () in
  let pid =
    load k ~name:"lonely"
      (let* r = command ~driver:9 ~cmd:2 ~arg1:42 () in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "notify to nonexistent pid fails" "true" (output k pid)

let test_ipc_discover_requires_allow () =
  let k, _ = board () in
  let pid =
    load k ~name:"noallow"
      (let* r = command ~driver:9 ~cmd:1 () in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "discover without a name buffer fails" "true" (output k pid)

let test_ipc_peer_buffer_bounds () =
  let k, _ = board () in
  let service =
    load k ~name:"bounds_svc"
      (let* _ = subscribe ~driver:9 ~upcall_id:2 in
       let* _ = command ~driver:9 ~cmd:0 () in
       let* client = yield in
       (* offset beyond the client's 8-byte shared buffer must fail *)
       let* r = command ~driver:9 ~cmd:4 ~arg1:client ~arg2:64 () in
       let* () = printf "oob=%b" (r = Userland.failure) in
       return 0)
  in
  let _client =
    load k ~name:"bounds_cli"
      (let* ms = memory_start in
       let* _ = allow_rw ~driver:9 ~addr:ms ~len:8 in
       let name = "bounds_svc" in
       let* () =
         iter_list
           (fun (i, c) ->
             let* _ = store8 (ms + 16 + i) (Char.code c) in
             return ())
           (List.mapi (fun i c -> (i, c)) (List.init (String.length name) (String.get name)))
       in
       let* _ = store8 (ms + 16 + String.length name) 0 in
       let* _ = allow_ro ~driver:9 ~addr:(ms + 16) ~len:16 in
       let* svc = command ~driver:9 ~cmd:1 () in
       let* _ = command ~driver:9 ~cmd:2 ~arg1:svc () in
       return 0)
  in
  k.Instance.run ~max_ticks:300;
  Alcotest.(check string) "peer reads are bounds-checked" "oob=true" (output k service)

let test_led_bad_index () =
  let k, _ = board () in
  let pid =
    load k ~name:"badled"
      (let* r = command ~driver:6 ~cmd:3 ~arg1:99 () in
       let* () = printf "%b" (r = Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:50;
  Alcotest.(check string) "led index validated" "true" (output k pid)

let test_capsule_upcall_to_busy_process_queues () =
  (* an alarm that fires while the process is running (not yielded) is
     queued and delivered at the next yield *)
  let k, _ = board () in
  let pid =
    load k ~name:"busy"
      (let* _ = subscribe ~driver:4 ~upcall_id:0 in
       let* d = command ~driver:4 ~cmd:1 ~arg1:1 () in
       (* burn time past the deadline without yielding *)
       let* () = repeat 30 (fun () -> let* _ = compute 50 in return ()) in
       let* woke = yield in
       let* () = printf "%b" (woke = d) in
       return 0)
  in
  k.Instance.run ~max_ticks:300;
  Alcotest.(check string) "queued upcall delivered late" "true" (output k pid)

let suite =
  suite
  @ [
      Alcotest.test_case "alarm replacement" `Quick test_alarm_replaces_outstanding;
      Alcotest.test_case "ipc notify dead pid" `Quick test_ipc_notify_dead_pid;
      Alcotest.test_case "ipc discover requires allow" `Quick test_ipc_discover_requires_allow;
      Alcotest.test_case "ipc peer buffer bounds" `Quick test_ipc_peer_buffer_bounds;
      Alcotest.test_case "led index validated" `Quick test_led_bad_index;
      Alcotest.test_case "upcall to busy process queues" `Quick
        test_capsule_upcall_to_busy_process_queues;
    ]

let test_grant_get_or_create () =
  (* a capsule that stores a counter in its grant block: the handle must
     hand back the same block on every syscall *)
  let counter_capsule =
    {
      (Capsule_intf.stub ~driver_num:12 ~name:"counter") with
      Capsule_intf.cap_command =
        (fun ph ~cmd:_ ~arg1:_ ~arg2:_ ->
          match ph.Capsule_intf.ph_grant ~size:8 ~align:8 with
          | Error _ -> Userland.failure
          | Ok addr -> addr);
    }
  in
  let caps, _ = Capsules.Board_set.standard () in
  let k = Boards.instance_ticktock_arm ~capsules:(counter_capsule :: caps) () in
  let pid =
    load k ~name:"cnt"
      (let* a = command ~driver:12 ~cmd:0 () in
       let* b = command ~driver:12 ~cmd:0 () in
       let* c = command ~driver:12 ~cmd:0 () in
       let* () = printf "%b" (a = b && b = c && a <> Userland.failure) in
       return 0)
  in
  k.Instance.run ~max_ticks:100;
  Alcotest.(check string) "same grant block every time" "true" (output k pid)

let suite = suite @ [ Alcotest.test_case "grant get-or-create" `Quick test_grant_get_or_create ]

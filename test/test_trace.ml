(* The kernel's scheduler-visible events, as the obs recorder sees them:
   process lifecycle, slices, syscalls, upcalls, faults and exits. The
   recorder's capture/restore across a board snapshot is pinned by
   test_snapshot's roundtrip cases ("rerun: trace"). *)

open Ticktock
open Apps.App_dsl
module K = Boards.Ticktock_arm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let kernel_with_recorder ?capacity () =
  let m = Machine.create_arm () in
  let r = Obs.Recorder.create ?capacity () in
  let caps, _ = Capsules.Board_set.standard () in
  let k =
    K.create ~mem:m.Machine.arm_mem ~hw:m.Machine.arm_mpu
      ~switcher:(Kernel.Arm_switch m.Machine.arm_cpu) ~capsules:caps ~obs:r ()
  in
  (k, r)

let create k ~name script =
  Result.get_ok
    (K.create_process k ~name ~payload:name ~program:(to_program script) ~min_ram:2048 ())

let test_ring_basics () =
  let r = Obs.Recorder.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Recorder.record r ~tick:i (Obs.Event.Scheduled { pid = i })
  done;
  check_int "surviving" 4 (Obs.Recorder.recorded r);
  check_int "dropped" 6 (Obs.Recorder.dropped r);
  match Obs.Recorder.entries r with
  | [ a; b; c; d ] ->
    check_int "oldest surviving" 6 a.Obs.Recorder.at;
    check_int "newest" 9 d.Obs.Recorder.at;
    ignore (b, c)
  | es -> Alcotest.failf "expected 4 events, got %d" (List.length es)

let test_lifecycle_events () =
  let k, r = kernel_with_recorder () in
  let p = create k ~name:"traced" (let* _ = sbrk 64 in return 3) in
  let pid = p.Process.pid in
  K.run k ~max_ticks:50;
  let events = Obs.Recorder.events r in
  check_bool "created recorded" true
    (List.exists
       (function Obs.Event.Proc_created { pid = p; name } -> p = pid && name = "traced" | _ -> false)
       events);
  check_bool "scheduled recorded" true
    (List.exists (function Obs.Event.Scheduled { pid = p } -> p = pid | _ -> false) events);
  check_bool "syscall recorded" true
    (List.exists
       (function Obs.Event.Syscall { pid = p; call; _ } -> p = pid && call = "memop" | _ -> false)
       events);
  check_bool "brk recorded" true
    (List.exists (function Obs.Event.Brk { pid = p; ok; _ } -> p = pid && ok | _ -> false) events);
  check_bool "exit recorded" true
    (List.exists (function Obs.Event.Exited { code; _ } -> code = 3 | _ -> false) events)

let test_fault_event () =
  let k, r = kernel_with_recorder () in
  let p = create k ~name:"crasher" (let* _ = load8 0 in return 0) in
  K.run k ~max_ticks:50;
  let faults =
    List.filter_map
      (function Obs.Event.Faulted { pid; reason } -> Some (pid, reason) | _ -> None)
      (Obs.Recorder.events r)
  in
  match faults with
  | [ (pid, reason) ] ->
    check_int "faulting pid" p.Process.pid pid;
    check_bool "reason given" true (String.length reason > 0)
  | fs -> Alcotest.failf "expected one fault, got %d" (List.length fs)

let test_upcall_event () =
  let k, r = kernel_with_recorder () in
  let _ =
    create k ~name:"alarmed"
      (let* _ = subscribe ~driver:4 ~upcall_id:0 in
       let* _ = command ~driver:4 ~cmd:1 ~arg1:2 () in
       let* _ = yield in
       return 0)
  in
  K.run k ~max_ticks:50;
  check_bool "upcall recorded" true
    (List.exists (function Obs.Event.Upcall _ -> true | _ -> false) (Obs.Recorder.events r))

let test_syscalls_of_filter () =
  let k, r = kernel_with_recorder () in
  let p =
    create k ~name:"s"
      (let* _ = memory_start in
       let* _ = memory_end in
       return 0)
  in
  let _ = create k ~name:"other" (let* _ = memory_start in return 0) in
  K.run k ~max_ticks:50;
  let of_pid pid =
    List.filter
      (function Obs.Event.Syscall { pid = q; _ } -> q = pid | _ -> false)
      (Obs.Recorder.events r)
  in
  check_int "two syscalls attributed" 2 (List.length (of_pid p.Process.pid))

let test_to_string_renders () =
  let k, r = kernel_with_recorder () in
  let _ = create k ~name:"r" (return 0) in
  K.run k ~max_ticks:10;
  let s = Obs.Recorder.to_string r in
  check_bool "mentions proc_created" true
    (let needle = "proc_created" in
     let n = String.length needle in
     let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
     go 0)

let suite =
  [
    Alcotest.test_case "ring buffer basics" `Quick test_ring_basics;
    Alcotest.test_case "lifecycle events" `Quick test_lifecycle_events;
    Alcotest.test_case "fault event" `Quick test_fault_event;
    Alcotest.test_case "upcall event" `Quick test_upcall_event;
    Alcotest.test_case "per-pid syscall filter" `Quick test_syscalls_of_filter;
    Alcotest.test_case "rendering" `Quick test_to_string_renders;
  ]

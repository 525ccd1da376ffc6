(* Bounded ring of timestamped events from every layer: scheduler, MPU,
   allocator, bus, contracts and chaos. Timestamps are kernel ticks (model time),
   never host time, so a recording is a pure function of the program run
   and two runs of the same seed export byte-identical traces. *)

type entry = { at : int; event : Event.t }

(* The ring stores events *unboxed*: each record writes the constructor
   tag and up to four int fields into a flat int array (plus one slot in a
   string array for the constructors that carry one). The [Event.t] built
   at the hook site dies in the next minor collection, recorded or not, so
   tracing adds no GC retention — without this, a few thousand live event
   blocks get promoted out of the minor heap and the "enabled" overhead is
   dominated by collector work rather than by the hooks.

   The arrays start empty and double geometrically up to [capacity]:
   a recorder that records little (or nothing — the "disabled" determinism
   mode attaches one per instance) never pays for the full ring. Capacity
   is rounded up to a power of two so the ring index is a mask, not a
   division; the ring can only wrap once the arrays have reached full
   capacity, so [next land mask] indexes correctly in both the growing and
   the wrapped regime. *)

let stride = 6 (* tick, tag, a, b, c, d *)

type t = {
  capacity : int;
  mask : int;  (* capacity - 1 *)
  mutable ints : int array;  (* stride-sized slots, [||] until first record *)
  mutable strs : string array;
  mutable next : int;  (* total events offered while enabled *)
  mutable enabled : bool;
}

let rec pow2_above n acc = if acc >= n then acc else pow2_above n (acc * 2)

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  let capacity = pow2_above capacity 1 in
  { capacity; mask = capacity - 1; ints = [||]; strs = [||]; next = 0; enabled = true }

let capacity t = t.capacity
let enabled t = t.enabled
let set_enabled t on = t.enabled <- on

let grow t =
  let size = Array.length t.strs in
  let size' = min t.capacity (max 256 (2 * size)) in
  let ints' = Array.make (size' * stride) 0 and strs' = Array.make size' "" in
  Array.blit t.ints 0 ints' 0 (size * stride);
  Array.blit t.strs 0 strs' 0 size;
  t.ints <- ints';
  t.strs <- strs'

(* Provision the full ring up front. Recording grows the ring on demand,
   but each doubling is a fresh (major-heap) array plus a copy; a harness
   that wants the steady-state recording cost — the overhead bench — can
   pay for the whole ring before the timed region instead. *)
let reserve t =
  while Array.length t.strs < t.capacity do
    grow t
  done

let int_of_bool b = if b then 1 else 0

let record t ~tick event =
  if t.enabled then begin
    if t.next >= Array.length t.strs && Array.length t.strs < t.capacity then grow t;
    let i = t.next land t.mask in
    let base = i * stride in
    let tag, a, b, c, d, s =
      match event with
      | Event.Proc_created { pid; name } -> (0, pid, 0, 0, 0, name)
      | Event.Scheduled { pid } -> (1, pid, 0, 0, 0, "")
      | Event.Syscall { pid; call; result } -> (2, pid, result, 0, 0, call)
      | Event.Upcall { pid; upcall_id; arg } -> (3, pid, upcall_id, arg, 0, "")
      | Event.Faulted { pid; reason } -> (4, pid, 0, 0, 0, reason)
      | Event.Exited { pid; code } -> (5, pid, code, 0, 0, "")
      | Event.Restarted { pid } -> (6, pid, 0, 0, 0, "")
      | Event.Switch_to_user { pid } -> (7, pid, 0, 0, 0, "")
      | Event.Exc_entry { exc } -> (8, exc, 0, 0, 0, "")
      | Event.Exc_return { to_handler } -> (9, int_of_bool to_handler, 0, 0, 0, "")
      | Event.Mpu_region_write { arch; index; generation } -> (10, index, generation, 0, 0, arch)
      | Event.Mpu_enable { arch; on; generation } ->
          (11, int_of_bool on, generation, 0, 0, arch)
      | Event.Region_update { start; size; app_break; kernel_break } ->
          (12, start, size, app_break, kernel_break, "")
      | Event.Grant_placed { addr; size } -> (13, addr, size, 0, 0, "")
      | Event.Brk { pid; app_break; ok } -> (14, pid, app_break, int_of_bool ok, 0, "")
      | Event.Grant { pid; driver; addr; ok } -> (15, pid, driver, addr, int_of_bool ok, "")
      | Event.Buscache_flush { reason } -> (16, 0, 0, 0, 0, reason)
      | Event.Icache_invalidated { generation; addr } -> (17, generation, addr, 0, 0, "")
      | Event.Contract_failed { site } -> (18, 0, 0, 0, 0, site)
      | Event.Chaos_injected { kind; target; info } -> (19, target, info, 0, 0, kind)
      | Event.Mpu_scrub { pid; mismatched; repaired; latency } ->
          (20, pid, mismatched, int_of_bool repaired, latency, "")
      | Event.Watchdog_fired { pid; ran } -> (21, pid, ran, 0, 0, "")
    in
    let ints = t.ints in
    ints.(base) <- tick;
    ints.(base + 1) <- tag;
    ints.(base + 2) <- a;
    ints.(base + 3) <- b;
    ints.(base + 4) <- c;
    ints.(base + 5) <- d;
    t.strs.(i) <- s;
    t.next <- t.next + 1
  end

let event_at t i =
  let base = i * stride in
  let ints = t.ints in
  let a = ints.(base + 2)
  and b = ints.(base + 3)
  and c = ints.(base + 4)
  and d = ints.(base + 5)
  and s = t.strs.(i) in
  match ints.(base + 1) with
  | 0 -> Event.Proc_created { pid = a; name = s }
  | 1 -> Event.Scheduled { pid = a }
  | 2 -> Event.Syscall { pid = a; call = s; result = b }
  | 3 -> Event.Upcall { pid = a; upcall_id = b; arg = c }
  | 4 -> Event.Faulted { pid = a; reason = s }
  | 5 -> Event.Exited { pid = a; code = b }
  | 6 -> Event.Restarted { pid = a }
  | 7 -> Event.Switch_to_user { pid = a }
  | 8 -> Event.Exc_entry { exc = a }
  | 9 -> Event.Exc_return { to_handler = a <> 0 }
  | 10 -> Event.Mpu_region_write { arch = s; index = a; generation = b }
  | 11 -> Event.Mpu_enable { arch = s; on = a <> 0; generation = b }
  | 12 -> Event.Region_update { start = a; size = b; app_break = c; kernel_break = d }
  | 13 -> Event.Grant_placed { addr = a; size = b }
  | 14 -> Event.Brk { pid = a; app_break = b; ok = c <> 0 }
  | 15 -> Event.Grant { pid = a; driver = b; addr = c; ok = d <> 0 }
  | 16 -> Event.Buscache_flush { reason = s }
  | 17 -> Event.Icache_invalidated { generation = a; addr = b }
  | 18 -> Event.Contract_failed { site = s }
  | 19 -> Event.Chaos_injected { kind = s; target = a; info = b }
  | 20 -> Event.Mpu_scrub { pid = a; mismatched = b; repaired = c <> 0; latency = d }
  | 21 -> Event.Watchdog_fired { pid = a; ran = b }
  | _ -> assert false

(* Ring capture/restore for the board snapshot subsystem: whole-array
   copies (the ring is bounded) written back through the same [t], so the
   sinks the layers were wired with keep recording into the restored ring. *)
type captured = {
  cap_ints : int array;
  cap_strs : string array;
  cap_next : int;
  cap_enabled : bool;
}

let capture t =
  {
    cap_ints = Array.copy t.ints;
    cap_strs = Array.copy t.strs;
    cap_next = t.next;
    cap_enabled = t.enabled;
  }

let restore t c =
  t.ints <- Array.copy c.cap_ints;
  t.strs <- Array.copy c.cap_strs;
  t.next <- c.cap_next;
  t.enabled <- c.cap_enabled

let recorded t = min t.next t.capacity
let dropped t = max 0 (t.next - t.capacity)

let clear t =
  let size = Array.length t.strs in
  if size > 0 then begin
    Array.fill t.ints 0 (size * stride) 0;
    Array.fill t.strs 0 size ""
  end;
  t.next <- 0

(* Oldest-first. *)
let entries t =
  let n = recorded t in
  let first = if t.next > t.capacity then t.next land t.mask else 0 in
  List.init n (fun i ->
      let j = (first + i) land t.mask in
      { at = t.ints.(j * stride); event = event_at t j })

let events t = List.map (fun e -> e.event) (entries t)

(* Build the sink closure the layers are wired with. [now] reads the
   owning kernel's tick counter at emission time. *)
let sink t ~now = fun event -> record t ~tick:(now ()) event

let pp ppf t =
  let es = entries t in
  Format.fprintf ppf "@[<v>obs trace: %d recorded, %d dropped@," (recorded t) (dropped t);
  List.iter (fun e -> Format.fprintf ppf "%6d  %a@," e.at Event.pp e.event) es;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

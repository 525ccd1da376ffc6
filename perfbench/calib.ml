(* Host-speed calibration.

   The machines this benchmark runs on are shared, and their speed drifts
   by a quarter over tens of seconds, in CPU time as much as in wall time
   (README.md has the measurements). So a fixed piece of work that uses
   none of the simulator's code (random reads, hashing and short-lived
   allocation) is timed right before and right after every timed stretch,
   on as many domains as the stretch uses, and the stretch's host times are
   divided by the host's slowdown derived from it ([slowdown]). A figure
   then reads as on a host where the calibration takes [nominal_s]. *)

let nominal_s = 0.01

(* The calibration must not disturb what the benchmark measures of the
   program's own heap: its tables live outside the OCaml heap, and all it
   allocates on the heap dies young. *)
let table_bits = 18
let mask = (1 lsl table_bits) - 1
let bigarray () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl table_bits)

let table =
  let t = bigarray () in
  for i = 0 to mask do
    t.{i} <- i * 2654435761 land mask
  done;
  t

(* Written at hashed positions; concurrent calibrations may race on it,
   which changes nothing but its contents. *)
let scratch =
  let t = bigarray () in
  Bigarray.Array1.fill t 0;
  t

let once () =
  let t0 = Stat.now_s () in
  let acc = ref 0 and j = ref 0 in
  for i = 0 to 150_000 do
    j := table.{!j lxor (i land 1023)};
    let k = Hashtbl.hash (!j, i) land mask in
    scratch.{k} <- List.fold_left ( + ) scratch.{k} [ k; i; !acc ] land mask;
    acc := !acc + k
  done;
  ignore (Sys.opaque_identity !acc);
  Stat.now_s () -. t0

(* One calibration on each of [jobs] domains at once: their mean time. *)
let parallel ~jobs =
  if jobs <= 1 then once ()
  else
    let ds = List.init jobs (fun _ -> Domain.spawn once) in
    List.fold_left (fun a d -> a +. Domain.join d) 0. ds /. float_of_int jobs

(** The host's slowdown now: the median of three calibrations over
    [nominal_s]. *)
let factor ~jobs = Stat.median (List.init 3 (fun _ -> parallel ~jobs)) /. nominal_s

(* The simulator slows down less than the calibration does: regressing the
   log of the per-pass cell rate on the log of the calibration's slowdown
   gave slopes of 0.57 (fuzzcov-mc), 0.72 (fleet), 0.75 (fleet-short) and
   0.80 (fabric-powerloss) over 50-200 passes each. Correcting by the full
   slowdown would over-correct, so the correction uses this slope. *)
let sensitivity = 0.75

(** The host's slowdown as it bears on the simulator, over a stretch
    between calibrations [f0] and [f1]. *)
let slowdown f0 f1 = ((f0 +. f1) /. 2.) ** sensitivity

(** [timed ~jobs f] runs [f] between two calibrations and returns its
    result and the slowdown over it. *)
let timed ~jobs f =
  let f0 = factor ~jobs in
  let r = f () in
  (r, slowdown f0 (factor ~jobs))

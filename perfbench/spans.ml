(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name, the cell it belongs to
   (-1 for work outside any cell, such as booting a pristine board), the
   worker that ran it, host start and end in ns, and the calling domain's
   minor-heap words allocated during it. Spans are recorded from the
   benchmark's own code around public calls into the simulator; nothing in
   lib/ is instrumented. Each domain appends to its own buffer; the buffers
   are collected once the pool has joined. *)

type span = {
  name : string;
  cell : int;
  worker : int;
  t0 : int;  (** ns *)
  t1 : int;  (** ns *)
  words : float;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type buffer = { mutable worker : int; mutable spans : span list }

let mu = Mutex.create ()
let buffers : buffer list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b = { worker = 0; spans = [] } in
      Mutex.lock mu;
      buffers := b :: !buffers;
      Mutex.unlock mu;
      b)

let set_worker w = (Domain.DLS.get key).worker <- w

let record b name ~cell t0 w0 =
  let s =
    { name; cell; worker = b.worker; t0; t1 = now_ns (); words = Gc.minor_words () -. w0 }
  in
  b.spans <- s :: b.spans

(** [span ~cell name f] runs [f ()] and records it, also when it raises. *)
let span ~cell name f =
  let b = Domain.DLS.get key in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  match f () with
  | r ->
    record b name ~cell t0 w0;
    r
  | exception e ->
    record b name ~cell t0 w0;
    raise e

(** Every span recorded since the last [reset], in start order. *)
let collect () =
  Mutex.lock mu;
  let all = List.concat_map (fun b -> b.spans) !buffers in
  Mutex.unlock mu;
  List.sort (fun a b -> compare a.t0 b.t0) all

let reset () =
  Mutex.lock mu;
  List.iter (fun b -> b.spans <- []) !buffers;
  Mutex.unlock mu

let dur_ns s = s.t1 - s.t0

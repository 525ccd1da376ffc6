(** The resumable-campaign driver: the one implementation of store
    open/resume, record recovery, the [stop_after] budget and
    commit-under-pool behind the fleet, fabric and fuzzcov campaigns.
    A campaign is [slots] results, each a pure function of its index,
    held in one [option] slot per index. The slot, commit, budget and
    finish contract and the determinism argument are in docs/FLEET.md
    ("Campaign driver"). *)

open Ticktock

type stats = {
  ds_resumed : int;  (** slots recovered from the store *)
  ds_ran : int;  (** slots committed by this run *)
  ds_steals : int;  (** pool batches stolen between workers *)
}

type 'c t = {
  dr_slots : 'c option array;
  dr_store : Store.t option;
  dr_encode : 'c -> string;
  dr_stop_after : int option;
  dr_resumed : int;
  dr_ran : int Atomic.t;
  mutable dr_steals : int;
}

(** Open (or, with [resume], recover) the store at [store] under the
    campaign's spec [key]; without [store] the campaign is not
    resumable. A recovered record fills its slot only if its index is
    in range, it decodes, [index] of the decoded value agrees, and the
    slot is empty; every other record is dropped from the rewritten
    store and its slot runs again. *)
let start ?store ~resume ~key ~slots ~encode ~decode ~index ?stop_after () =
  let cells = Array.make slots None in
  let keep (r : Store.record) =
    let i = r.Store.rc_index in
    i >= 0 && i < slots
    && Option.is_none cells.(i)
    &&
    match decode r.Store.rc_data with
    | Some c when index c = i ->
      cells.(i) <- Some c;
      true
    | _ -> false
  in
  let st =
    match store with
    | None -> None
    | Some path when resume -> Some (fst (Store.resume ~keep ~path ~spec:key))
    | Some path -> Some (Store.create ~path ~spec:key)
  in
  {
    dr_slots = cells;
    dr_store = st;
    dr_encode = encode;
    dr_stop_after = stop_after;
    dr_resumed = Array.fold_left (fun a c -> if Option.is_some c then a + 1 else a) 0 cells;
    dr_ran = Atomic.make 0;
    dr_steals = 0;
  }

let slot d i = d.dr_slots.(i)

(** The index-ordered slots; [None] = not run yet. *)
let slots d = d.dr_slots

(** True once this run has committed [stop_after] slots. *)
let spent d =
  match d.dr_stop_after with Some n -> Atomic.get d.dr_ran >= n | None -> false

(** Fill slot [i], append its record (flushed) and spend one unit of
    budget. *)
let commit d i c =
  d.dr_slots.(i) <- Some c;
  (match d.dr_store with
  | Some t -> Store.append t ~index:i ~data:(d.dr_encode c)
  | None -> ());
  Atomic.incr d.dr_ran

(** Run every empty slot on the shared pool until the budget is spent:
    [cell state i] computes slot [i] on a worker whose private state
    [init] built. *)
let run_pool d ?jobs ~batch ~init ~cell () =
  let _, ps =
    Pool.run ?jobs ~batch ~cells:(Array.length d.dr_slots)
      ~skip:(fun i -> Option.is_some d.dr_slots.(i) || spent d)
      ~commit:(commit d) ~init ~cell ()
  in
  d.dr_steals <- ps.Pool.ps_steals

(** Close the store; [Some results] in index order iff every slot is
    filled. *)
let finish d =
  Option.iter Store.close d.dr_store;
  if Array.for_all Option.is_some d.dr_slots then Some (Array.map Option.get d.dr_slots)
  else None

let stats d = { ds_resumed = d.dr_resumed; ds_ran = Atomic.get d.dr_ran; ds_steals = d.dr_steals }

(** FNV-1a 64-bit state fingerprints.

    Every snapshotable component folds its observable state into one of
    these; the snapshot layer combines them into a whole-board fingerprint
    the determinism tests compare. FNV-1a is not cryptographic — it only
    needs to make "same fingerprint" a trustworthy proxy for "byte-identical
    state" across a restore, and to be cheap enough to run after every
    round of a property suite. *)

type t = int64

let seed = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* Full 63-bit OCaml ints are fed as 8 little-endian bytes so negative
   sentinels (-1 keys) and large words hash distinctly. *)
let int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h ((v asr (i * 8)) land 0xff)
  done;
  !h

let int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xff)
  done;
  !h

let bool h v = byte h (if v then 1 else 0)

(* The hot loop of every page and frame hash. The accumulator is a local
   ref that no closure captures, so the native compiler keeps it unboxed:
   hashing a 4 KiB page allocates only the result, not an Int64 per byte. *)
let string h s =
  let h = ref (int h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h

let bytes h b = string h (Bytes.unsafe_to_string b)
let ints h l = List.fold_left int (int h (List.length l)) l
let to_hex h = Printf.sprintf "%016Lx" h

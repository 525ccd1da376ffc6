(* The clock and order statistics shared by the end-to-end and traced runs. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

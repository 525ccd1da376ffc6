(* The resumable-campaign driver on its own, with a toy cell type so no
   board boots: kill chains, planted bad records, and a resume of a
   finished store. *)

module D = Fleet.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let key = "toy-v1"

(* A toy cell: a pure function of its index, encoded as one line. *)
let cell_of i = (i, (i * i) + 7)
let encode (i, v) = Printf.sprintf "%d %d" i v

let decode s =
  try Scanf.sscanf s "%d %d%!" (fun i v -> if v = (i * i) + 7 then Some (i, v) else None)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let campaign ?store ?(resume = false) ?stop_after ~jobs ~batch slots =
  let d =
    D.start ?store ~resume ~key ~slots ~encode ~decode ~index:fst ?stop_after ()
  in
  D.run_pool d ~jobs ~batch ~init:(fun _ -> ()) ~cell:(fun () i -> cell_of i) ();
  let finished = D.finish d in
  (finished, D.stats d)

let with_store f =
  let path = Filename.temp_file "driver" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* The store must load strictly and hold every index in range exactly once. *)
let check_store path slots =
  let spec, recs = Fleet.Store.load path in
  spec = key
  && List.length recs = slots
  && List.sort compare (List.map (fun (r : Fleet.Store.record) -> r.Fleet.Store.rc_index) recs)
     = List.init slots Fun.id

let prop_kill_chain =
  QCheck.Test.make ~name:"kill chains resume to the uninterrupted slots" ~count:60
    QCheck.(
      quad (int_range 0 40) (int_range 1 2) (int_range 1 4)
        (list_of_size (Gen.int_range 1 3) (int_range 0 15)))
    (fun (slots, jobs, batch, kills) ->
      let whole, _ = campaign ~jobs:1 ~batch slots in
      with_store (fun path ->
          let first = ref true in
          List.iter
            (fun k ->
              let _, st = campaign ~store:path ~resume:(not !first) ~stop_after:k ~jobs ~batch slots in
              first := false;
              if jobs = 1 then
                check_int "a sequential kill commits exactly its budget"
                  (min k (slots - st.D.ds_resumed))
                  st.D.ds_ran)
            kills;
          let resumed, st = campaign ~store:path ~resume:true ~jobs ~batch slots in
          resumed = whole
          && st.D.ds_resumed + st.D.ds_ran = slots
          && check_store path slots))

(* Plant a record whose payload names another index, one whose payload
   does not decode, and one whose index is out of range: each slot they
   claim is run again, and the rewritten store drops them. *)
let test_planted_records () =
  let slots = 8 in
  let whole, _ = campaign ~jobs:1 ~batch:1 slots in
  with_store (fun path ->
      let t = Fleet.Store.create ~path ~spec:key in
      List.iter
        (fun i -> Fleet.Store.append t ~index:i ~data:(encode (cell_of i)))
        [ 0; 1; 2; 4; 6 ];
      Fleet.Store.append t ~index:3 ~data:(encode (cell_of 5));
      Fleet.Store.append t ~index:5 ~data:"garbage";
      Fleet.Store.append t ~index:99 ~data:(encode (cell_of 7));
      Fleet.Store.append t ~index:(-1) ~data:(encode (cell_of 7));
      Fleet.Store.close t;
      let resumed, st = campaign ~store:path ~resume:true ~jobs:2 ~batch:2 slots in
      check_int "the good records recovered" 5 st.D.ds_resumed;
      check_int "slots 3, 5 and 7 re-ran" 3 st.D.ds_ran;
      check_bool "slots equal an uninterrupted run" true (resumed = whole);
      check_bool "store holds each index exactly once" true (check_store path slots))

let test_resume_complete_runs_nothing () =
  with_store (fun path ->
      let whole, _ = campaign ~store:path ~jobs:2 ~batch:3 10 in
      let again, st = campaign ~store:path ~resume:true ~jobs:2 ~batch:3 10 in
      check_int "zero cells ran" 0 st.D.ds_ran;
      check_int "every cell recovered" 10 st.D.ds_resumed;
      check_bool "same slots" true (again = whole);
      check_bool "store unchanged in shape" true (check_store path 10))

let test_spent_budget_stops_before_work () =
  let d = D.start ~resume:false ~key ~slots:5 ~encode ~decode ~index:fst ~stop_after:0 () in
  check_bool "a zero budget is spent at once" true (D.spent d);
  D.run_pool d ~jobs:1 ~batch:1 ~init:(fun _ -> ()) ~cell:(fun () i -> cell_of i) ();
  check_bool "nothing finished" true (D.finish d = None);
  check_int "nothing ran" 0 (D.stats d).D.ds_ran

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kill_chain;
    Alcotest.test_case "planted bad records re-run" `Quick test_planted_records;
    Alcotest.test_case "resume of a complete store runs nothing" `Quick
      test_resume_complete_runs_nothing;
    Alcotest.test_case "spent budget stops before any work" `Quick
      test_spent_budget_stops_before_work;
  ]

(* Sparse physical memory with the MPU access-checker hook. *)

let check_int = Alcotest.(check int)

let test_rw8 () =
  let m = Memory.create () in
  Memory.write8 m 0x2000_0000 0xAB;
  check_int "read back" 0xAB (Memory.read8 m 0x2000_0000);
  check_int "default zero" 0 (Memory.read8 m 0x2000_0001)

let test_rw32_little_endian () =
  let m = Memory.create () in
  Memory.write32 m 0x2000_0000 0xDEAD_BEEF;
  check_int "word" 0xDEAD_BEEF (Memory.read32 m 0x2000_0000);
  check_int "LSB first" 0xEF (Memory.read8 m 0x2000_0000);
  check_int "MSB last" 0xDE (Memory.read8 m 0x2000_0003)

let test_cross_page () =
  let m = Memory.create () in
  (* a word spanning a 4 KiB page boundary *)
  Memory.write32 m 0x2000_0FFE 0x1234_5678;
  check_int "cross-page word" 0x1234_5678 (Memory.read32 m 0x2000_0FFE)

let test_blit_and_read () =
  let m = Memory.create () in
  Memory.blit_string m 0x100 "hello tock";
  Alcotest.(check string) "roundtrip" "hello tock" (Memory.read_bytes m 0x100 10)

let test_sparse () =
  let m = Memory.create () in
  Memory.write8 m 0 1;
  Memory.write8 m 0xF000_0000 2;
  check_int "two pages only" 2 (Memory.touched_pages m)

let deny_writes _addr access =
  match access with Perms.Write -> Error "read-only world" | Perms.Read | Perms.Execute -> Ok ()

let test_checker_applies () =
  let m = Memory.create () in
  Memory.set_checker_fn m (Some deny_writes);
  Alcotest.(check bool) "checker installed" true (Memory.checker_enabled m);
  check_int "load allowed" 0 (Memory.load8 m 0x2000_0000);
  Alcotest.check_raises "store denied"
    (Memory.Access_fault
       { Memory.fault_addr = 0x2000_0000; fault_access = Perms.Write; fault_reason = "read-only world" })
    (fun () -> Memory.store8 m 0x2000_0000 1)

let test_checker_word_granularity () =
  (* A 4-byte store faults if any covered byte is denied. *)
  let m = Memory.create () in
  let deny_byte addr _ = if addr = 0x2000_0003 then Error "hole" else Ok () in
  Memory.set_checker_fn m (Some deny_byte);
  (try
     Memory.store32 m 0x2000_0000 0xFFFF_FFFF;
     Alcotest.fail "expected fault on covered byte"
   with Memory.Access_fault f -> check_int "faulting byte" 0x2000_0003 f.Memory.fault_addr);
  (* And the partial store must not have happened. *)
  check_int "no partial write" 0 (Memory.read8 m 0x2000_0000)

let test_raw_bypasses_checker () =
  let m = Memory.create () in
  Memory.set_checker_fn m (Some (fun _ _ -> Error "deny all"));
  (* raw accesses model DMA / kernel: never checked *)
  Memory.write8 m 0x2000_0000 7;
  check_int "raw read" 7 (Memory.read8 m 0x2000_0000)

let test_fetch_checked_as_execute () =
  let m = Memory.create () in
  let record = ref None in
  Memory.set_checker_fn m
    (Some
       (fun _ access ->
         record := Some access;
         Ok ()));
  ignore (Memory.fetch32 m 0x0002_0000);
  Alcotest.(check bool) "fetch uses Execute" true (!record = Some Perms.Execute)

let test_checker_removal () =
  let m = Memory.create () in
  Memory.set_checker_fn m (Some (fun _ _ -> Error "deny"));
  Memory.set_checker_fn m None;
  check_int "unchecked after removal" 0 (Memory.load8 m 0x1000)

(* --- FNV-1a fingerprints: values pinned against the byte-at-a-time fold,
   and the page hash must not box a value per byte --- *)

let hex = Alcotest.(check string)

let fp_page = Bytes.init 4096 (fun i -> Char.chr ((i * 7 + (i / 256)) land 0xff))

let test_fp_values () =
  List.iter
    (fun (s, want) -> hex (Printf.sprintf "string %S" s) want (Fp.to_hex (Fp.string Fp.seed s)))
    [
      ("", "a8c7f832281a39c5");
      ("a", "529a4ddc8ff56bbf");
      ("hello, tock", "7cc8947413fd0d65");
      ("\000\255\128", "f70ef0d422e7beb5");
    ];
  hex "bytes page" "0a5f8d1c29d6cc15" (Fp.to_hex (Fp.bytes Fp.seed fp_page));
  hex "bytes page, other start" "edaea5b61c61d904" (Fp.to_hex (Fp.bytes 0x1234L fp_page));
  hex "bytes = string" (Fp.to_hex (Fp.string 7L (Bytes.to_string fp_page)))
    (Fp.to_hex (Fp.bytes 7L fp_page))

let test_fp_page_allocation () =
  ignore (Sys.opaque_identity (Fp.bytes Fp.seed fp_page));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Fp.bytes Fp.seed fp_page));
  let words = Gc.minor_words () -. before in
  if words >= 8. then Alcotest.failf "hashing a 4 KiB page allocated %.0f minor words" words

(* --- keep/graft: carrying a page range across a restore ---

   The reference is the byte-copy path it replaces: read the range out,
   restore, blit it back. Both run on twin memories built by the same
   operations; every observable must agree, before and after later
   writes, and restoring the pristine snapshot afterwards must give the
   same bytes (the kept pages were shared, not scribbled on). *)

let kr_base = 0x0010_0000
let kr_pages = 6
let kr_range = Range.make ~start:kr_base ~size:(kr_pages * 4096)

(* the observed window: the kept range plus two pages either side *)
let kr_window m = Memory.read_bytes m (kr_base - (2 * 4096)) ((kr_pages + 4) * 4096)

(* (page relative to the range, offset, kind, value); kind 0 = write8,
   1 = write32, 2 = read8 (a read miss materialises a zero page),
   3 = register the page as code *)
let kr_op =
  QCheck.Gen.(
    quad (int_range (-2) (kr_pages + 1)) (int_range 0 4095) (int_range 0 3)
      (frequency [ (1, return 0); (3, int_range 0 255) ]))

let kr_apply m ops =
  List.iter
    (fun (page, off, kind, v) ->
      let addr = kr_base + (page * 4096) + off in
      match kind with
      | 0 -> Memory.write8 m addr v
      | 1 -> Memory.write32 m (addr land lnot 3) (v * 0x0101_0101)
      | 2 -> ignore (Memory.read8 m addr)
      | _ -> Memory.note_code_page m addr)
    ops

type kr_case = {
  kc_pristine : (int * int * int * int) list;  (** the image restored at reboot *)
  kc_from_pristine : bool;  (** live state grown from that image, or from empty *)
  kc_live : (int * int * int * int) list;
  kc_mid : (int * int * int * int) list;  (** on either side of the restore *)
  kc_after : (int * int * int * int) list;
}

let kr_case =
  let ops n = QCheck.Gen.(list_size (int_range 0 n) kr_op) in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "pristine=%d from_pristine=%b live=%d mid=%d after=%d"
        (List.length c.kc_pristine) c.kc_from_pristine (List.length c.kc_live)
        (List.length c.kc_mid) (List.length c.kc_after))
    QCheck.Gen.(
      map
        (fun ((kc_pristine, kc_from_pristine), (kc_live, kc_mid, kc_after)) ->
          { kc_pristine; kc_from_pristine; kc_live; kc_mid; kc_after })
        (pair (pair (ops 40) bool) (triple (ops 40) (ops 6) (ops 20))))

let kr_build c =
  let m = Memory.create () in
  let empty = Memory.capture m in
  kr_apply m c.kc_pristine;
  let pristine = Memory.capture m in
  Memory.restore m (if c.kc_from_pristine then pristine else empty);
  kr_apply m c.kc_live;
  (m, pristine)

let kr_agree what a b =
  Memory.fingerprint a = Memory.fingerprint b
  && String.equal (kr_window a) (kr_window b)
  && Memory.code_generation a = Memory.code_generation b
  || QCheck.Test.fail_reportf "keep/graft and read/blit disagree %s" what

let prop_keep_graft_equals_copy =
  QCheck.Test.make ~name:"keep/restore/graft = read/restore/blit" ~count:300 kr_case (fun c ->
      let a, pa = kr_build c and b, pb = kr_build c in
      let kept = Memory.keep a kr_range in
      kr_apply a c.kc_mid;
      Memory.restore a pa;
      kr_apply a c.kc_mid;
      Memory.graft a kept;
      let flash = Memory.read_bytes b kr_base (Range.size kr_range) in
      kr_apply b c.kc_mid;
      Memory.restore b pb;
      kr_apply b c.kc_mid;
      Memory.blit_string b kr_base flash;
      kr_agree "after the reboot" a b
      && (kr_apply a c.kc_after;
          kr_apply b c.kc_after;
          kr_agree "after later writes" a b)
      &&
      (Memory.restore a pa;
       Memory.restore b pb;
       kr_agree "on the pristine image" a b))

let test_graft_is_copy_on_write () =
  (* page 0 of the range diverged from the pristine image before the
     reboot; page 1 still is the pristine image's own page *)
  let m = Memory.create () in
  Memory.blit_string m kr_base "pristine-0";
  Memory.blit_string m (kr_base + 4096) "pristine-1";
  let pristine = Memory.capture m in
  Memory.blit_string m kr_base "prereboot0";
  let before = Memory.capture m in
  let kept = Memory.keep m kr_range in
  Memory.restore m pristine;
  Memory.graft m kept;
  hex "surviving page 0" "prereboot0" (Memory.read_bytes m kr_base 10);
  hex "surviving page 1" "pristine-1" (Memory.read_bytes m (kr_base + 4096) 10);
  Memory.blit_string m kr_base "written-0!";
  Memory.blit_string m (kr_base + 4096) "written-1!";
  Memory.restore m before;
  hex "capture before the reboot, page 0" "prereboot0" (Memory.read_bytes m kr_base 10);
  hex "capture before the reboot, page 1" "pristine-1" (Memory.read_bytes m (kr_base + 4096) 10);
  Memory.restore m pristine;
  hex "pristine image, page 0" "pristine-0" (Memory.read_bytes m kr_base 10);
  hex "pristine image, page 1" "pristine-1" (Memory.read_bytes m (kr_base + 4096) 10)

let test_keep_refuses_unaligned () =
  let m = Memory.create () in
  List.iter
    (fun (start, size) ->
      match Memory.keep m (Range.make ~start ~size) with
      | _ -> Alcotest.failf "keep accepted [0x%x, +0x%x)" start size
      | exception Invalid_argument _ -> ())
    [ (kr_base + 4, 4096); (kr_base, 4095); (kr_base + 2048, 2048) ]

let suite =
  [
    Alcotest.test_case "byte read/write" `Quick test_rw8;
    Alcotest.test_case "word little-endian" `Quick test_rw32_little_endian;
    Alcotest.test_case "cross-page word" `Quick test_cross_page;
    Alcotest.test_case "blit/read_bytes" `Quick test_blit_and_read;
    Alcotest.test_case "sparse pages" `Quick test_sparse;
    Alcotest.test_case "checker gates checked access" `Quick test_checker_applies;
    Alcotest.test_case "word access checks every byte" `Quick test_checker_word_granularity;
    Alcotest.test_case "raw access bypasses checker (DMA)" `Quick test_raw_bypasses_checker;
    Alcotest.test_case "fetch checked as execute" `Quick test_fetch_checked_as_execute;
    Alcotest.test_case "checker removal" `Quick test_checker_removal;
    Alcotest.test_case "fp: pinned FNV-1a values" `Quick test_fp_values;
    Alcotest.test_case "fp: page hash does not box per byte" `Quick test_fp_page_allocation;
    QCheck_alcotest.to_alcotest prop_keep_graft_equals_copy;
    Alcotest.test_case "keep/graft: kept pages stay copy-on-write" `Quick
      test_graft_is_copy_on_write;
    Alcotest.test_case "keep: refuses an unaligned range" `Quick test_keep_refuses_unaligned;
  ]

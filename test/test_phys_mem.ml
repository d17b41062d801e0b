open Nkhw

let test_create () =
  let mem = Phys_mem.create ~frames:4 in
  Alcotest.(check int) "frames" 4 (Phys_mem.num_frames mem);
  Alcotest.(check int) "bytes" (4 * 4096) (Phys_mem.size_bytes mem);
  Alcotest.(check int) "zeroed" 0 (Phys_mem.read_u8 mem 0x2fff)

let test_u8 () =
  let mem = Phys_mem.create ~frames:2 in
  Phys_mem.write_u8 mem 100 0xAB;
  Alcotest.(check int) "read back" 0xAB (Phys_mem.read_u8 mem 100);
  Phys_mem.write_u8 mem 100 0x1FF;
  Alcotest.(check int) "truncated to byte" 0xFF (Phys_mem.read_u8 mem 100)

let test_u64 () =
  let mem = Phys_mem.create ~frames:2 in
  Phys_mem.write_u64 mem 0x100 0x1122334455667788;
  Alcotest.(check int) "read back" 0x1122334455667788
    (Phys_mem.read_u64 mem 0x100);
  Alcotest.(check int) "little endian low byte" 0x88 (Phys_mem.read_u8 mem 0x100)

let test_u64_straddle () =
  let mem = Phys_mem.create ~frames:2 in
  let pa = 4096 - 3 in
  Phys_mem.write_u64 mem pa 0x0102030405060708;
  Alcotest.(check int) "straddling read" 0x0102030405060708
    (Phys_mem.read_u64 mem pa);
  Alcotest.(check int) "byte in next frame" 0x05 (Phys_mem.read_u8 mem 4096)

let test_bytes_straddle () =
  let mem = Phys_mem.create ~frames:3 in
  let data = Bytes.init 6000 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.write_bytes mem 3000 data;
  let back = Phys_mem.read_bytes mem 3000 6000 in
  Alcotest.(check bytes) "bulk round trip across frames" data back

let test_bounds () =
  let mem = Phys_mem.create ~frames:1 in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Phys_mem: access [0x1000, +1) out of range") (fun () ->
      ignore (Phys_mem.read_u8 mem 4096))

let test_zero_copy_frame () =
  let mem = Phys_mem.create ~frames:3 in
  Phys_mem.write_u64 mem 0x1010 42;
  Phys_mem.frame_copy mem ~src:1 ~dst:2;
  Alcotest.(check int) "copied" 42 (Phys_mem.read_u64 mem 0x2010);
  Phys_mem.zero_frame mem 2;
  Alcotest.(check int) "zeroed" 0 (Phys_mem.read_u64 mem 0x2010)

let prop_u64_roundtrip =
  Helpers.qtest "u64 round trip at arbitrary offsets"
    QCheck2.Gen.(pair (int_range 0 (2 * 4096 - 8)) (int_range 0 max_int))
    (fun (pa, v) ->
      let mem = Phys_mem.create ~frames:2 in
      Phys_mem.write_u64 mem pa v;
      Phys_mem.read_u64 mem pa = v land max_int)

let prop_bytes_roundtrip =
  Helpers.qtest "bytes round trip"
    QCheck2.Gen.(pair (int_range 0 4096) (string_size (int_range 0 5000)))
    (fun (pa, s) ->
      let mem = Phys_mem.create ~frames:3 in
      Phys_mem.write_bytes mem pa (Bytes.of_string s);
      Bytes.to_string (Phys_mem.read_bytes mem pa (String.length s)) = s)

let test_restore () =
  let src = Phys_mem.create ~frames:4 in
  Phys_mem.write_u64 src 8 0x1234;
  Phys_mem.write_u8 src (3 * 4096) 0x7f;
  Phys_mem.watch_frame src 1;
  Phys_mem.watch_frame src 2;
  Phys_mem.write_u8 src 4096 1;
  let dst = Phys_mem.create ~frames:4 in
  Phys_mem.write_u64 dst 16 0x99;
  Phys_mem.restore ~src dst;
  Alcotest.(check int) "word copied" 0x1234 (Phys_mem.read_u64 dst 8);
  Alcotest.(check int) "stale word gone" 0 (Phys_mem.read_u64 dst 16);
  Alcotest.(check int) "last frame copied" 0x7f (Phys_mem.read_u8 dst (3 * 4096));
  Alcotest.(check (list int)) "logged store copied" [ 1 ]
    (List.init (Phys_mem.logged_stores dst) (Phys_mem.logged_store dst));
  (* A logged frame is logged once; the other watched frame still logs;
     none of it reaches the source. *)
  Phys_mem.write_u8 dst 4097 2;
  Phys_mem.write_u8 dst (2 * 4096) 3;
  Alcotest.(check (list int)) "copy keeps logging" [ 1; 2 ]
    (List.init (Phys_mem.logged_stores dst) (Phys_mem.logged_store dst));
  Alcotest.(check int) "source log unchanged" 1 (Phys_mem.logged_stores src);
  Alcotest.(check int) "source plane unchanged" 0 (Phys_mem.read_u8 src (2 * 4096));
  (* Restoring from a memory with the log off turns the copy's off. *)
  Phys_mem.restore ~src:(Phys_mem.create ~frames:4) dst;
  Phys_mem.write_u8 dst 4096 1;
  Alcotest.(check int) "log off" 0 (Phys_mem.logged_stores dst);
  Alcotest.(check int) "plane cleared" 0 (Phys_mem.read_u64 dst 8);
  Alcotest.check_raises "sizes must match"
    (Invalid_argument "Phys_mem.restore: memories differ in size") (fun () ->
      Phys_mem.restore ~src:(Phys_mem.create ~frames:2) dst)

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "byte access" `Quick test_u8;
    Alcotest.test_case "word access" `Quick test_u64;
    Alcotest.test_case "word straddling frames" `Quick test_u64_straddle;
    Alcotest.test_case "bulk straddling frames" `Quick test_bytes_straddle;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "zero and copy frames" `Quick test_zero_copy_frame;
    Alcotest.test_case "restore in place" `Quick test_restore;
    prop_u64_roundtrip;
    prop_bytes_roundtrip;
  ]

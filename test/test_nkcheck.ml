(* The model checker itself, plus the regression scripts for the bugs
   it flushed out: each script is a shrunk counterexample that failed
   before its fix and must replay clean forever after. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replay_clean name () =
  let outcome = Nkcheck.replay_script (read_file ("regress/" ^ name)) in
  Alcotest.(check bool) "script has ops" true (outcome.Nkcheck.ro_ops <> []);
  Alcotest.(check (list (pair int string)))
    "replays clean" [] outcome.Nkcheck.ro_failures

(* The small bounds the tests explore, with their exact (states,
   transitions): a change to op semantics, the fingerprint or the
   explorer that merges or splits states shows up here first. *)
let core_d2 = { Nkcheck.default with depth = 2; vocab = Nkcheck.Core }
let core_d3 = { core_d2 with depth = 3 }
let inject_d2 = { core_d2 with inject = true }
let full_d2 = { core_d2 with vocab = Nkcheck.Full }
let domains_d2 = { core_d2 with vocab = Nkcheck.Domains }

let check_clean ~states ~transitions cfg =
  let report = Nkcheck.run cfg in
  Alcotest.(check bool) "not truncated" false report.Nkcheck.rp_truncated;
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.Nkcheck.rp_counterexamples);
  Alcotest.(check (pair int int))
    "states, transitions" (states, transitions)
    (report.Nkcheck.rp_states, report.Nkcheck.rp_transitions);
  report

let test_small_bound_clean () = ignore (check_clean ~states:28 ~transitions:72 core_d2)
let test_core_d3_clean () = ignore (check_clean ~states:114 ~transitions:336 core_d3)

let test_inject_bound_clean () =
  ignore (check_clean ~states:48 ~transitions:144 inject_d2)

let test_full_bound_clean () =
  ignore (check_clean ~states:200 ~transitions:558 full_d2)

let test_domains_bound_clean () =
  let report = check_clean ~states:103 ~transitions:325 domains_d2 in
  Alcotest.(check bool) "domain ops in the vocabulary" true
    (List.mem "dom-destroy-b" report.Nkcheck.rp_op_names)

(* The explorer restores one work universe in place instead of booting
   per transition; every reached state must look the same either way. *)
let restore_matches_boot cfg () =
  Alcotest.(check (list string)) "restored = booted" [] (Nkcheck.restore_mismatches cfg)

let test_deterministic () =
  let run () =
    let r = Nkcheck.run { Nkcheck.default with depth = 2 } in
    Format.asprintf "%a" Nkcheck.pp_report r
  in
  Alcotest.(check string) "two runs render identically" (run ()) (run ())

let test_unknown_op_reported () =
  let outcome = Nkcheck.replay_script "op no-such-op\n" in
  Alcotest.(check bool) "unknown op is a failure" true
    (outcome.Nkcheck.ro_failures <> [])

let suite =
  [
    Alcotest.test_case "regress: G-bit global leak" `Quick
      (replay_clean "gbit-global-leak.nkcheck");
    Alcotest.test_case "regress: CR4.PCIDE clear with PCID set" `Quick
      (replay_clean "cr4-pcide-clear-nonzero-pcid.nkcheck");
    Alcotest.test_case "regress: untagged switch stale tags" `Quick
      (replay_clean "untagged-switch-stale-tags.nkcheck");
    Alcotest.test_case "regress: host write crosses tenant lattice" `Quick
      (replay_clean "host-xdom-map.nkcheck");
    Alcotest.test_case "regress: retired PTP owner residue" `Quick
      (replay_clean "retired-ptp-owner-residue.nkcheck");
    Alcotest.test_case "depth-2 domains bound is clean" `Quick
      test_domains_bound_clean;
    Alcotest.test_case "depth-2 core bound is clean" `Quick
      test_small_bound_clean;
    Alcotest.test_case "depth-2 core bound clean under injection" `Quick
      test_inject_bound_clean;
    Alcotest.test_case "depth-3 core bound is clean" `Quick test_core_d3_clean;
    Alcotest.test_case "depth-2 full bound is clean" `Quick test_full_bound_clean;
    Alcotest.test_case "restore = boot: core depth 3" `Quick
      (restore_matches_boot core_d3);
    Alcotest.test_case "restore = boot: core+inject depth 2" `Quick
      (restore_matches_boot inject_d2);
    Alcotest.test_case "restore = boot: full depth 2" `Quick
      (restore_matches_boot full_d2);
    Alcotest.test_case "restore = boot: domains depth 2" `Quick
      (restore_matches_boot domains_d2);
    Alcotest.test_case "exploration is deterministic" `Quick test_deterministic;
    Alcotest.test_case "unknown op reported, not crashed" `Quick
      test_unknown_op_reported;
  ]

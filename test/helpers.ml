(* Shared fixtures and Alcotest testables for the whole suite. *)
open Nkhw

let machine ?(frames = 2048) () = Machine.create ~frames ()

let booted_nk ?(frames = 2048) () =
  let m = machine ~frames () in
  (m, Nested_kernel.Api.boot_exn m)

let kernel config = Outer_kernel.Os.boot ~frames:4096 config

(* Run a booted nested kernel under the differential TLB-coherence
   oracle from here on: a stale-and-more-permissive cached translation
   raises [Coherence.Violation]. *)
let with_oracle (k : Outer_kernel.Kernel.t) =
  Nested_kernel.Api.Diagnostics.Coherence.enable (Option.get k.nk);
  k

(* CI runs the suite twice with different NKSIM_SCHED_SEED values to
   flush out interleaving-dependent assertions; tests that drive the
   SMP executor should take their seed from here. *)
let sched_seed = Nk_workloads.Harness.seed ()

let errno = Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Outer_kernel.Ktypes.errno_to_string e))
    ( = )

let nk_error =
  Alcotest.testable Nested_kernel.Nk_error.pp ( = )

let fault = Alcotest.testable Fault.pp ( = )

let check_ok : type e. string -> ('a, e) result -> unit =
 fun name -> function
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "%s: unexpected error" name

let check_ok_nk name = function
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "%s: unexpected error: %s" name
        (Nested_kernel.Nk_error.to_string e)

let check_ok_errno name = function
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "%s: unexpected errno: %s" name
        (Outer_kernel.Ktypes.errno_to_string e)

let expect_error name = function
  | Ok _ -> Alcotest.failf "%s: expected an error, got Ok" name
  | Error _ -> ()

let expect_fault name = function
  | Ok _ -> Alcotest.failf "%s: expected a fault, got Ok" name
  | Error (_ : Fault.t) -> ()

(* Shorthand for registering qcheck properties as alcotest cases. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let outer_frame (nk : Nested_kernel.Api.t) i =
  Nested_kernel.Api.outer_first_frame nk + i

(** Exhaustive small-scope model checker for the nested kernel.

    Drives every interleaving of a small op vocabulary — PTE
    up/downgrades (4 KiB and 2 MiB leaves), batched updates, PTP
    declare/remove, CR3/CR4 loads, TLB-filling touches, CPU migration,
    DMA writes, frame reuse, deterministic fault-injector toggles,
    and (under the [Domains] vocabulary) two-tenant domain traffic:
    authority switches, cross-domain writes against the ownership
    lattice, domain-marked deferred unmaps, the inter-tenant pipe, and
    victim teardown — over a tiny two-CPU universe, checking
    invariants I1–I14 ({!Nested_kernel.Invariants}) and the
    differential TLB-coherence oracle ({!Nkhw.Coherence}) after every
    step, plus a destructive drain-then-re-audit shutdown check on
    every newly reached state.

    Exploration is breadth-first over {e canonical states}: two
    sequences landing on semantically identical machine/nested-kernel
    states are explored once, which is what makes "all sequences up to
    depth [d]" tractable.  Everything is deterministic — same config,
    same report, byte for byte.  Counterexamples are shrunk to
    1-minimal op sequences and serialize to replayable scripts. *)

type vocab = Core | Full | Domains

type config = {
  depth : int;  (** maximum op-sequence length *)
  vocab : vocab;
      (** [Core]: the 12-op depth-5 vocabulary; [Full]: all ops;
          [Domains]: core plus two-tenant domain ops over a universe
          booted with two live tenant domains *)
  inject : bool;  (** add the rate-1.0 injector-toggle ops *)
  max_states : int;  (** safety valve; exceeding it marks the report truncated *)
}

val default : config
(** [{ depth = 4; vocab = Core; inject = false; max_states = 200_000 }] *)

val vocab_name : vocab -> string
val vocab_of_name : string -> vocab option

type counterexample = {
  cx_signature : string;  (** failure class used for dedup, e.g. ["oracle"] *)
  cx_ops : string list;  (** shrunk, 1-minimal op sequence *)
  cx_raw_ops : string list;  (** the sequence as first discovered *)
  cx_failure : string;  (** full failure detail *)
}

type report = {
  rp_config : config;
  rp_op_names : string list;
  rp_states : int;  (** distinct canonical states visited *)
  rp_transitions : int;  (** (state, op) edges checked *)
  rp_truncated : bool;  (** hit [max_states]: the bound was NOT exhausted *)
  rp_counterexamples : counterexample list;
}

val run : config -> report
(** Explore the bound.  Deterministic; a clean run has
    [rp_counterexamples = []] and [rp_truncated = false]. *)

val run_checked : string list -> (int * string) list
(** Replay an op sequence from a fresh boot with full per-step checks
    and the shutdown check; returns every failure as
    [(step index, detail)] — the empty list means the sequence is
    clean.  The index [length ops] tags shutdown-check failures. *)

val script_of_counterexample : config -> counterexample -> string
(** Serialize to the [# comment] / [op <name>] script format
    [nksim check --replay] and the regression tests consume. *)

type replay_outcome = { ro_ops : string list; ro_failures : (int * string) list }

val replay_script : string -> replay_outcome
(** Parse script {e content} (not a path) and {!run_checked} it.
    Raises [Failure] on unparseable lines or (via the outcome) reports
    unknown ops as failures. *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic human-readable report: config, vocabulary, state and
    transition counts, exhaustion statement, counterexamples. *)

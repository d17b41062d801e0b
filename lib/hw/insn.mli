(** The machine's instruction set and its byte-level encoding.

    Only the code the nested-kernel design reasons about at the
    instruction level is modelled as machine code: the entry/exit/trap
    gates, attack shellcode, and the binaries fed to the de-privileging
    scanner.  The bulk of kernel logic runs as OCaml, charging costs.

    The encoding is deliberately x86-64-flavoured and variable-length:
    {e protected instructions} (paper Table 2) use the real x86 opcode
    prefixes ([0F 22 /r] for mov-to-CR, [0F 30] for WRMSR), and 64-bit
    immediates are emitted verbatim — so protected-instruction byte
    patterns can occur {e implicitly} inside immediates or displacements
    at unaligned offsets, which is exactly what the paper's binary
    scanner must find and eliminate (sections 3.5 and 5.2). *)

type reg = RAX | RBX | RCX | RDX | RSI | RDI | RSP | RBP

type cr = CR0 | CR3 | CR4

type target = Rel of int | Label of string
(** Branch target: resolved relative displacement (from the end of the
    instruction, as on x86) or a symbolic label resolved at assembly. *)

type t =
  | Nop
  | Hlt
  | Pushfq  (** push RFLAGS (IF and ZF) *)
  | Popfq
  | Cli
  | Sti
  | Push of reg
  | Pop of reg
  | Mov_ri of reg * int  (** 64-bit immediate load *)
  | Mov_rr of reg * reg  (** dst, src *)
  | Load of reg * reg * int  (** dst <- [base + disp] *)
  | Store of reg * int * reg  (** [base + disp] <- src *)
  | And_ri of reg * int
  | Or_ri of reg * int
  | Add_ri of reg * int
  | Add_rr of reg * reg
  | Sub_ri of reg * int
  | Xor_rr of reg * reg
  | Test_ri of reg * int  (** sets ZF from [reg land imm] *)
  | Cmp_ri of reg * int  (** sets ZF from [reg = imm] *)
  | Test_rr of reg * reg
  | Cmp_rr of reg * reg
  | Jz of target
  | Jnz of target
  | Jmp of target
  | Call of target
  | Ret
  | Mov_to_cr of cr * reg  (** protected instruction *)
  | Mov_from_cr of reg * cr
  | Wrmsr  (** protected: MSR number in RCX, value in RAX *)
  | Rdmsr  (** RAX <- MSR[RCX] *)
  | Invlpg of reg  (** flush TLB entry for the page of [reg] *)
  | Callout of int
      (** Leave the interpreter and return control to OCaml with a
          code; used where gate code hands off to nested-kernel or
          outer-kernel logic implemented in OCaml. *)

val reg_code : reg -> int
val all_regs : reg list

val encoded_length : t -> int
val encode : Buffer.t -> t -> unit

val decode : bytes -> int -> (t * int) option
(** [decode code off] decodes the instruction at byte offset [off],
    returning it with its encoded length, or [None] for an invalid or
    truncated encoding.  Branch targets decode as [Rel _]. *)

type asm_item = Ins of t | Lbl of string

val assemble : asm_item list -> bytes
(** Resolve labels and encode.  Raises [Failure] on undefined or
    duplicate labels, or on a [Rel]-form branch (use labels). *)

val assemble_raw : t list -> bytes
(** Encode a label-free program ([Rel] branches allowed). *)

val disassemble : bytes -> (int * t) list
(** Linear-sweep disassembly from offset 0; stops at the first invalid
    byte. *)

val is_protected : t -> bool
(** True for the instructions the outer kernel must not contain:
    mov-to-CR and WRMSR (paper Table 2). *)

type protected_kind = P_mov_cr of cr | P_wrmsr

val pp : Format.formatter -> t -> unit
val pp_protected_kind : Format.formatter -> protected_kind -> unit

val find_protected_patterns : bytes -> (int * protected_kind) list
(** All byte offsets (aligned or not) where a protected-instruction
    encoding occurs.  This is the raw pattern scan the de-privileging
    scanner builds on. *)

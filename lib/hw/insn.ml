type reg = RAX | RBX | RCX | RDX | RSI | RDI | RSP | RBP
type cr = CR0 | CR3 | CR4
type target = Rel of int | Label of string

type t =
  | Nop
  | Hlt
  | Pushfq
  | Popfq
  | Cli
  | Sti
  | Push of reg
  | Pop of reg
  | Mov_ri of reg * int
  | Mov_rr of reg * reg
  | Load of reg * reg * int
  | Store of reg * int * reg
  | And_ri of reg * int
  | Or_ri of reg * int
  | Add_ri of reg * int
  | Add_rr of reg * reg
  | Sub_ri of reg * int
  | Xor_rr of reg * reg
  | Test_ri of reg * int
  | Cmp_ri of reg * int
  | Test_rr of reg * reg
  | Cmp_rr of reg * reg
  | Jz of target
  | Jnz of target
  | Jmp of target
  | Call of target
  | Ret
  | Mov_to_cr of cr * reg
  | Mov_from_cr of reg * cr
  | Wrmsr
  | Rdmsr
  | Invlpg of reg
  | Callout of int

let reg_code = function
  | RAX -> 0
  | RCX -> 1
  | RDX -> 2
  | RBX -> 3
  | RSP -> 4
  | RBP -> 5
  | RSI -> 6
  | RDI -> 7

let reg_of_code = function
  | 0 -> Some RAX
  | 1 -> Some RCX
  | 2 -> Some RDX
  | 3 -> Some RBX
  | 4 -> Some RSP
  | 5 -> Some RBP
  | 6 -> Some RSI
  | 7 -> Some RDI
  | _ -> None

let cr_code = function CR0 -> 0 | CR3 -> 3 | CR4 -> 4
let cr_of_code = function 0 -> Some CR0 | 3 -> Some CR3 | 4 -> Some CR4 | _ -> None
let all_regs = [ RAX; RBX; RCX; RDX; RSI; RDI; RSP; RBP ]

(* Opcodes.  The protected instructions use real x86 encodings
   (0F 22 /r, 0F 30) so the scanner hunts genuine byte patterns;
   the rest are a compact custom map. *)
let op_nop = 0x90
let op_hlt = 0xF4
let op_pushfq = 0x9C
let op_popfq = 0x9D
let op_cli = 0xFA
let op_sti = 0xFB
let op_push = 0x50 (* +reg *)
let op_pop = 0x58 (* +reg *)
let op_mov_ri = 0xB8 (* +reg, imm64 *)
let op_mov_rr = 0x89 (* modrm *)
let op_load = 0xA1 (* modrm, disp32 *)
let op_store = 0xA3 (* modrm, disp32 *)
let op_and_ri = 0xE1
let op_or_ri = 0xE2
let op_add_ri = 0xE3
let op_sub_ri = 0xE4
let op_test_ri = 0xE5
let op_cmp_ri = 0xE6
let op_add_rr = 0x01
let op_xor_rr = 0x31
let op_test_rr = 0x85
let op_cmp_rr = 0x39
let op_jz = 0x74
let op_jnz = 0x75
let op_jmp = 0xE9
let op_call = 0xE8
let op_ret = 0xC3
let op_callout = 0xCD
let op_two_byte = 0x0F
let op2_mov_to_cr = 0x22
let op2_mov_from_cr = 0x20
let op2_wrmsr = 0x30
let op2_rdmsr = 0x32
let op2_invlpg = 0x01

let encoded_length = function
  | Nop | Hlt | Pushfq | Popfq | Cli | Sti | Ret | Push _ | Pop _ -> 1
  | Wrmsr | Rdmsr -> 2
  | Mov_rr _ | Add_rr _ | Xor_rr _ | Test_rr _ | Cmp_rr _ -> 2
  | Mov_to_cr _ | Mov_from_cr _ | Invlpg _ -> 3
  | Jz _ | Jnz _ | Jmp _ | Call _ | Callout _ -> 5
  | Load _ | Store _ -> 6
  | Mov_ri _ -> 9
  | And_ri _ | Or_ri _ | Add_ri _ | Sub_ri _ | Test_ri _ | Cmp_ri _ -> 10

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_i32 b v =
  add_u8 b v;
  add_u8 b (v asr 8);
  add_u8 b (v asr 16);
  add_u8 b (v asr 24)

let add_i64 b v =
  add_i32 b v;
  add_i32 b (v asr 32)

let modrm r1 r2 = 0xC0 lor (reg_code r1 lsl 3) lor reg_code r2

let rel_of = function
  | Rel r -> r
  | Label l -> failwith ("Insn.encode: unresolved label " ^ l)

let encode b = function
  | Nop -> add_u8 b op_nop
  | Hlt -> add_u8 b op_hlt
  | Pushfq -> add_u8 b op_pushfq
  | Popfq -> add_u8 b op_popfq
  | Cli -> add_u8 b op_cli
  | Sti -> add_u8 b op_sti
  | Ret -> add_u8 b op_ret
  | Push r -> add_u8 b (op_push + reg_code r)
  | Pop r -> add_u8 b (op_pop + reg_code r)
  | Mov_ri (r, imm) ->
      add_u8 b (op_mov_ri + reg_code r);
      add_i64 b imm
  | Mov_rr (dst, src) ->
      add_u8 b op_mov_rr;
      add_u8 b (modrm src dst)
  | Load (dst, base, disp) ->
      add_u8 b op_load;
      add_u8 b (modrm dst base);
      add_i32 b disp
  | Store (base, disp, src) ->
      add_u8 b op_store;
      add_u8 b (modrm src base);
      add_i32 b disp
  | And_ri (r, imm) ->
      add_u8 b op_and_ri;
      add_u8 b (reg_code r);
      add_i64 b imm
  | Or_ri (r, imm) ->
      add_u8 b op_or_ri;
      add_u8 b (reg_code r);
      add_i64 b imm
  | Add_ri (r, imm) ->
      add_u8 b op_add_ri;
      add_u8 b (reg_code r);
      add_i64 b imm
  | Sub_ri (r, imm) ->
      add_u8 b op_sub_ri;
      add_u8 b (reg_code r);
      add_i64 b imm
  | Test_ri (r, imm) ->
      add_u8 b op_test_ri;
      add_u8 b (reg_code r);
      add_i64 b imm
  | Cmp_ri (r, imm) ->
      add_u8 b op_cmp_ri;
      add_u8 b (reg_code r);
      add_i64 b imm
  | Add_rr (dst, src) ->
      add_u8 b op_add_rr;
      add_u8 b (modrm src dst)
  | Xor_rr (dst, src) ->
      add_u8 b op_xor_rr;
      add_u8 b (modrm src dst)
  | Test_rr (a, b') ->
      add_u8 b op_test_rr;
      add_u8 b (modrm b' a)
  | Cmp_rr (a, b') ->
      add_u8 b op_cmp_rr;
      add_u8 b (modrm b' a)
  | Jz tgt ->
      add_u8 b op_jz;
      add_i32 b (rel_of tgt)
  | Jnz tgt ->
      add_u8 b op_jnz;
      add_i32 b (rel_of tgt)
  | Jmp tgt ->
      add_u8 b op_jmp;
      add_i32 b (rel_of tgt)
  | Call tgt ->
      add_u8 b op_call;
      add_i32 b (rel_of tgt)
  | Callout code ->
      add_u8 b op_callout;
      add_i32 b code
  | Mov_to_cr (c, r) ->
      add_u8 b op_two_byte;
      add_u8 b op2_mov_to_cr;
      add_u8 b (0xC0 lor (cr_code c lsl 3) lor reg_code r)
  | Mov_from_cr (r, c) ->
      add_u8 b op_two_byte;
      add_u8 b op2_mov_from_cr;
      add_u8 b (0xC0 lor (cr_code c lsl 3) lor reg_code r)
  | Wrmsr ->
      add_u8 b op_two_byte;
      add_u8 b op2_wrmsr
  | Rdmsr ->
      add_u8 b op_two_byte;
      add_u8 b op2_rdmsr
  | Invlpg r ->
      add_u8 b op_two_byte;
      add_u8 b op2_invlpg;
      add_u8 b (0x38 lor reg_code r)

let get_u8 code off =
  if off < Bytes.length code then Some (Char.code (Bytes.get code off))
  else None

let get_i32 code off =
  if off + 4 <= Bytes.length code then
    Some (Int32.to_int (Bytes.get_int32_le code off))
  else None

let get_i64 code off =
  if off + 8 <= Bytes.length code then
    (* Keep the value in OCaml int range; the machine word is 63-bit. *)
    Some (Int64.to_int (Bytes.get_int64_le code off))
  else None

let decode code off =
  let ( let* ) = Option.bind in
  let* op = get_u8 code off in
  let rr k =
    let* m = get_u8 code (off + 1) in
    if m land 0xC0 <> 0xC0 then None
    else
      let* r1 = reg_of_code ((m lsr 3) land 7) in
      let* r2 = reg_of_code (m land 7) in
      Some (k r1 r2, 2)
  in
  let reg_imm64 k =
    let* rc = get_u8 code (off + 1) in
    let* r = reg_of_code rc in
    let* imm = get_i64 code (off + 2) in
    Some (k r imm, 10)
  in
  let rel32 k =
    let* d = get_i32 code (off + 1) in
    Some (k (Rel d), 5)
  in
  if op >= op_push && op < op_push + 8 then
    let* r = reg_of_code (op - op_push) in
    Some (Push r, 1)
  else if op >= op_pop && op < op_pop + 8 then
    let* r = reg_of_code (op - op_pop) in
    Some (Pop r, 1)
  else if op >= op_mov_ri && op < op_mov_ri + 8 then
    let* r = reg_of_code (op - op_mov_ri) in
    let* imm = get_i64 code (off + 1) in
    Some (Mov_ri (r, imm), 9)
  else if op = op_nop then Some (Nop, 1)
  else if op = op_hlt then Some (Hlt, 1)
  else if op = op_pushfq then Some (Pushfq, 1)
  else if op = op_popfq then Some (Popfq, 1)
  else if op = op_cli then Some (Cli, 1)
  else if op = op_sti then Some (Sti, 1)
  else if op = op_ret then Some (Ret, 1)
  else if op = op_mov_rr then rr (fun src dst -> Mov_rr (dst, src))
  else if op = op_add_rr then rr (fun src dst -> Add_rr (dst, src))
  else if op = op_xor_rr then rr (fun src dst -> Xor_rr (dst, src))
  else if op = op_test_rr then rr (fun src dst -> Test_rr (dst, src))
  else if op = op_cmp_rr then rr (fun src dst -> Cmp_rr (dst, src))
  else if op = op_load then
    let* m = get_u8 code (off + 1) in
    if m land 0xC0 <> 0xC0 then None
    else
      let* dst = reg_of_code ((m lsr 3) land 7) in
      let* base = reg_of_code (m land 7) in
      let* disp = get_i32 code (off + 2) in
      Some (Load (dst, base, disp), 6)
  else if op = op_store then
    let* m = get_u8 code (off + 1) in
    if m land 0xC0 <> 0xC0 then None
    else
      let* src = reg_of_code ((m lsr 3) land 7) in
      let* base = reg_of_code (m land 7) in
      let* disp = get_i32 code (off + 2) in
      Some (Store (base, disp, src), 6)
  else if op = op_and_ri then reg_imm64 (fun r i -> And_ri (r, i))
  else if op = op_or_ri then reg_imm64 (fun r i -> Or_ri (r, i))
  else if op = op_add_ri then reg_imm64 (fun r i -> Add_ri (r, i))
  else if op = op_sub_ri then reg_imm64 (fun r i -> Sub_ri (r, i))
  else if op = op_test_ri then reg_imm64 (fun r i -> Test_ri (r, i))
  else if op = op_cmp_ri then reg_imm64 (fun r i -> Cmp_ri (r, i))
  else if op = op_jz then rel32 (fun t -> Jz t)
  else if op = op_jnz then rel32 (fun t -> Jnz t)
  else if op = op_jmp then rel32 (fun t -> Jmp t)
  else if op = op_call then rel32 (fun t -> Call t)
  else if op = op_callout then
    let* c = get_i32 code (off + 1) in
    Some (Callout c, 5)
  else if op = op_two_byte then
    let* op2 = get_u8 code (off + 1) in
    if op2 = op2_wrmsr then Some (Wrmsr, 2)
    else if op2 = op2_rdmsr then Some (Rdmsr, 2)
    else if op2 = op2_mov_to_cr then
      let* m = get_u8 code (off + 2) in
      if m land 0xC0 <> 0xC0 then None
      else
        let* c = cr_of_code ((m lsr 3) land 7) in
        let* r = reg_of_code (m land 7) in
        Some (Mov_to_cr (c, r), 3)
    else if op2 = op2_mov_from_cr then
      let* m = get_u8 code (off + 2) in
      if m land 0xC0 <> 0xC0 then None
      else
        let* c = cr_of_code ((m lsr 3) land 7) in
        let* r = reg_of_code (m land 7) in
        Some (Mov_from_cr (r, c), 3)
    else if op2 = op2_invlpg then
      let* m = get_u8 code (off + 2) in
      if m land 0xF8 <> 0x38 then None
      else
        let* r = reg_of_code (m land 7) in
        Some (Invlpg r, 3)
    else None
  else None

type asm_item = Ins of t | Lbl of string

let assemble items =
  (* Two passes: compute label offsets, then encode with resolved
     displacements relative to the end of each branch instruction. *)
  let labels = Hashtbl.create 16 in
  let off = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Lbl l ->
          if Hashtbl.mem labels l then failwith ("Insn.assemble: duplicate label " ^ l);
          Hashtbl.replace labels l !off
      | Ins i -> off := !off + encoded_length i)
    items;
  let resolve here len = function
    | Rel _ -> failwith "Insn.assemble: use labels for branch targets"
    | Label l -> (
        match Hashtbl.find_opt labels l with
        | None -> failwith ("Insn.assemble: undefined label " ^ l)
        | Some tgt -> Rel (tgt - (here + len)))
  in
  let b = Buffer.create 256 in
  let off = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Lbl _ -> ()
      | Ins i ->
          let len = encoded_length i in
          let i' =
            match i with
            | Jz t -> Jz (resolve !off len t)
            | Jnz t -> Jnz (resolve !off len t)
            | Jmp t -> Jmp (resolve !off len t)
            | Call t -> Call (resolve !off len t)
            | other -> other
          in
          encode b i';
          off := !off + len)
    items;
  Buffer.to_bytes b

let assemble_raw insns =
  let b = Buffer.create 256 in
  List.iter (encode b) insns;
  Buffer.to_bytes b

let disassemble code =
  let rec go off acc =
    if off >= Bytes.length code then List.rev acc
    else
      match decode code off with
      | None -> List.rev acc
      | Some (i, len) -> go (off + len) ((off, i) :: acc)
  in
  go 0 []

let is_protected = function Mov_to_cr _ | Wrmsr -> true | _ -> false

type protected_kind = P_mov_cr of cr | P_wrmsr

let pp_reg ppf r =
  Format.pp_print_string ppf
    (match r with
    | RAX -> "rax"
    | RBX -> "rbx"
    | RCX -> "rcx"
    | RDX -> "rdx"
    | RSI -> "rsi"
    | RDI -> "rdi"
    | RSP -> "rsp"
    | RBP -> "rbp")

let pp_cr ppf c =
  Format.pp_print_string ppf
    (match c with CR0 -> "cr0" | CR3 -> "cr3" | CR4 -> "cr4")

let pp_target ppf = function
  | Rel r -> Format.fprintf ppf "%+d" r
  | Label l -> Format.pp_print_string ppf l

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Hlt -> Format.pp_print_string ppf "hlt"
  | Pushfq -> Format.pp_print_string ppf "pushfq"
  | Popfq -> Format.pp_print_string ppf "popfq"
  | Cli -> Format.pp_print_string ppf "cli"
  | Sti -> Format.pp_print_string ppf "sti"
  | Push r -> Format.fprintf ppf "push %a" pp_reg r
  | Pop r -> Format.fprintf ppf "pop %a" pp_reg r
  | Mov_ri (r, i) -> Format.fprintf ppf "mov %a, %#x" pp_reg r i
  | Mov_rr (d, s) -> Format.fprintf ppf "mov %a, %a" pp_reg d pp_reg s
  | Load (d, b, disp) -> Format.fprintf ppf "mov %a, [%a%+d]" pp_reg d pp_reg b disp
  | Store (b, disp, s) -> Format.fprintf ppf "mov [%a%+d], %a" pp_reg b disp pp_reg s
  | And_ri (r, i) -> Format.fprintf ppf "and %a, %#x" pp_reg r i
  | Or_ri (r, i) -> Format.fprintf ppf "or %a, %#x" pp_reg r i
  | Add_ri (r, i) -> Format.fprintf ppf "add %a, %#x" pp_reg r i
  | Add_rr (d, s) -> Format.fprintf ppf "add %a, %a" pp_reg d pp_reg s
  | Sub_ri (r, i) -> Format.fprintf ppf "sub %a, %#x" pp_reg r i
  | Xor_rr (d, s) -> Format.fprintf ppf "xor %a, %a" pp_reg d pp_reg s
  | Test_ri (r, i) -> Format.fprintf ppf "test %a, %#x" pp_reg r i
  | Cmp_ri (r, i) -> Format.fprintf ppf "cmp %a, %#x" pp_reg r i
  | Test_rr (a, b) -> Format.fprintf ppf "test %a, %a" pp_reg a pp_reg b
  | Cmp_rr (a, b) -> Format.fprintf ppf "cmp %a, %a" pp_reg a pp_reg b
  | Jz t -> Format.fprintf ppf "jz %a" pp_target t
  | Jnz t -> Format.fprintf ppf "jnz %a" pp_target t
  | Jmp t -> Format.fprintf ppf "jmp %a" pp_target t
  | Call t -> Format.fprintf ppf "call %a" pp_target t
  | Ret -> Format.pp_print_string ppf "ret"
  | Mov_to_cr (c, r) -> Format.fprintf ppf "mov %a, %a" pp_cr c pp_reg r
  | Mov_from_cr (r, c) -> Format.fprintf ppf "mov %a, %a" pp_reg r pp_cr c
  | Wrmsr -> Format.pp_print_string ppf "wrmsr"
  | Rdmsr -> Format.pp_print_string ppf "rdmsr"
  | Invlpg r -> Format.fprintf ppf "invlpg [%a]" pp_reg r
  | Callout c -> Format.fprintf ppf "callout %d" c

let pp_protected_kind ppf = function
  | P_mov_cr c -> Format.fprintf ppf "mov-to-%a" pp_cr c
  | P_wrmsr -> Format.pp_print_string ppf "wrmsr"

let find_protected_patterns code =
  let n = Bytes.length code in
  let get i = Char.code (Bytes.get code i) in
  let acc = ref [] in
  for off = n - 2 downto 0 do
    if get off = op_two_byte then
      let op2 = get (off + 1) in
      if op2 = op2_wrmsr then acc := (off, P_wrmsr) :: !acc
      else if op2 = op2_mov_to_cr && off + 2 < n then
        let m = get (off + 2) in
        if m land 0xC0 = 0xC0 then
          match cr_of_code ((m lsr 3) land 7) with
          | Some c when reg_of_code (m land 7) <> None ->
              acc := (off, P_mov_cr c) :: !acc
          | Some _ | None -> ()
  done;
  !acc

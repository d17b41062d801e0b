open Nkhw

type finding = { offset : int; kind : Insn.protected_kind; explicit : bool }

let scan code =
  let patterns = Insn.find_protected_patterns code in
  let boundaries = Hashtbl.create 256 in
  List.iter
    (fun (off, insn) -> Hashtbl.replace boundaries off insn)
    (Insn.disassemble code);
  List.map
    (fun (offset, kind) ->
      let explicit =
        match Hashtbl.find_opt boundaries offset with
        | Some insn -> Insn.is_protected insn
        | None -> false
      in
      { offset; kind; explicit })
    patterns

let is_clean code = Insn.find_protected_patterns code = []

type summary = {
  total : int;
  explicit_count : int;
  implicit_cr0 : int;
  implicit_cr_other : int;
  implicit_wrmsr : int;
}

let summarize findings =
  List.fold_left
    (fun s f ->
      if f.explicit then { s with explicit_count = s.explicit_count + 1 }
      else
        match f.kind with
        | Insn.P_mov_cr Insn.CR0 -> { s with implicit_cr0 = s.implicit_cr0 + 1 }
        | Insn.P_mov_cr _ ->
            { s with implicit_cr_other = s.implicit_cr_other + 1 }
        | Insn.P_wrmsr -> { s with implicit_wrmsr = s.implicit_wrmsr + 1 })
    {
      total = List.length findings;
      explicit_count = 0;
      implicit_cr0 = 0;
      implicit_cr_other = 0;
      implicit_wrmsr = 0;
    }
    findings

type rewrite_stats = {
  iterations : int;
  constants_split : int;
  nops_inserted : int;
  exprs_rewritten : int;
}

let no_stats =
  { iterations = 0; constants_split = 0; nops_inserted = 0; exprs_rewritten = 0 }

(* Offsets of each Ins item in the assembled program (labels are
   zero-width), mirroring Insn.assemble's layout pass. *)
let item_offsets items =
  let _, rev =
    List.fold_left
      (fun (off, acc) (i, item) ->
        match item with
        | Insn.Lbl _ -> (off, acc)
        | Insn.Ins insn ->
            (off + Insn.encoded_length insn, (off, i, insn) :: acc))
      (0, [])
      (List.mapi (fun i item -> (i, item)) items)
  in
  List.rev rev

let locate items off =
  List.find_opt
    (fun (start, _, insn) -> off >= start && off < start + Insn.encoded_length insn)
    (item_offsets items)

(* Candidate split constants.  A protected pattern can hide at any
   byte position of an 8-byte immediate, and subtracting k only
   disturbs bytes up to k's magnitude — so the candidates sweep a
   perturbation across every byte position, plus a few small values
   for low-byte patterns. *)
let split_candidates =
  List.concat_map
    (fun j -> [ 0x11 lsl (8 * j); 0x2B lsl (8 * j) ])
    [ 0; 1; 2; 3; 4; 5; 6 ]
  @ [ 1; 0x1003; 0x10101; 13 ]

let clean_replacement insns =
  Insn.find_protected_patterns (Insn.assemble_raw insns) = []

let try_candidates f =
  List.find_map
    (fun k ->
      match f k with
      | Some insns when clean_replacement insns -> Some insns
      | Some _ | None -> None)
    split_candidates

let scratch_for r = if r = Insn.RAX then Insn.RCX else Insn.RAX

type action =
  | Replace of Insn.t list * [ `Split | `Expr ]
  | Insert_nop_between of string  (** label name of the branch target *)

let plan_rewrite insn =
  match insn with
  | Insn.Mov_ri (r, imm) ->
      Option.map
        (fun insns -> Replace (insns, `Split))
        (try_candidates (fun k ->
             Some [ Insn.Mov_ri (r, imm - k); Insn.Add_ri (r, k) ]))
  | Insn.Add_ri (r, imm) ->
      Option.map
        (fun insns -> Replace (insns, `Expr))
        (try_candidates (fun k ->
             Some [ Insn.Add_ri (r, imm - k); Insn.Add_ri (r, k) ]))
  | Insn.Sub_ri (r, imm) ->
      Option.map
        (fun insns -> Replace (insns, `Expr))
        (try_candidates (fun k ->
             Some [ Insn.Sub_ri (r, imm - k); Insn.Sub_ri (r, k) ]))
  | Insn.Or_ri (r, imm) ->
      (* Split the mask into two halves whose union is the original. *)
      let masks =
        [
          (0xFFFFFFFF, -1 lxor 0xFFFFFFFF);
          (0xFFFF, -1 lxor 0xFFFF);
          (0xFF00FF00FF00FF, -1 lxor 0xFF00FF00FF00FF);
        ]
      in
      List.find_map
        (fun (m1, m2) ->
          let a = imm land m1 and b = imm land m2 in
          let insns = [ Insn.Or_ri (r, a); Insn.Or_ri (r, b) ] in
          if a lor b = imm && clean_replacement insns then
            Some (Replace (insns, `Expr))
          else None)
        masks
  | Insn.And_ri (r, imm) ->
      (* (imm|b1) & (imm|b2) = imm when b1 and b2 are disjoint single
         bits outside imm. *)
      let free_bits =
        List.filter (fun b -> imm land (1 lsl b) = 0) (List.init 61 Fun.id)
      in
      let rec pairs = function
        | b1 :: (b2 :: _ as rest) ->
            let insns =
              [
                Insn.And_ri (r, imm lor (1 lsl b1));
                Insn.And_ri (r, imm lor (1 lsl b2));
              ]
            in
            if clean_replacement insns then Some (Replace (insns, `Expr))
            else pairs rest
        | _ -> None
      in
      pairs free_bits
  | Insn.Test_ri (r, imm) ->
      let s = scratch_for r in
      Option.map
        (fun insns -> Replace (insns, `Split))
        (try_candidates (fun k ->
             Some
               [
                 Insn.Push s;
                 Insn.Mov_ri (s, imm - k);
                 Insn.Add_ri (s, k);
                 Insn.Test_rr (r, s);
                 Insn.Pop s;
               ]))
  | Insn.Cmp_ri (r, imm) ->
      let s = scratch_for r in
      Option.map
        (fun insns -> Replace (insns, `Split))
        (try_candidates (fun k ->
             Some
               [
                 Insn.Push s;
                 Insn.Mov_ri (s, imm - k);
                 Insn.Add_ri (s, k);
                 Insn.Cmp_rr (r, s);
                 Insn.Pop s;
               ]))
  | Insn.Load (dst, base, disp) ->
      Option.map
        (fun insns -> Replace (insns, `Expr))
        (try_candidates (fun k ->
             if dst = base then
               Some [ Insn.Add_ri (base, k); Insn.Load (dst, base, disp - k) ]
             else
               Some
                 [
                   Insn.Add_ri (base, k);
                   Insn.Load (dst, base, disp - k);
                   Insn.Sub_ri (base, k);
                 ]))
  | Insn.Store (base, disp, src) ->
      if src = base then None
      else
        Option.map
          (fun insns -> Replace (insns, `Expr))
          (try_candidates (fun k ->
               Some
                 [
                   Insn.Add_ri (base, k);
                   Insn.Store (base, disp - k, src);
                   Insn.Sub_ri (base, k);
                 ]))
  | Insn.Jz (Insn.Label l)
  | Insn.Jnz (Insn.Label l)
  | Insn.Jmp (Insn.Label l)
  | Insn.Call (Insn.Label l) ->
      Some (Insert_nop_between l)
  | _ -> None

let splice items idx replacement =
  List.concat
    (List.mapi
       (fun i item -> if i = idx then replacement else [ item ])
       items)

let insert_at items pos extra =
  let rec go i = function
    | [] -> [ extra ]
    | x :: rest -> if i = pos then extra :: x :: rest else x :: go (i + 1) rest
  in
  go 0 items

let label_index items l =
  let rec go i = function
    | [] -> None
    | Insn.Lbl l' :: _ when l' = l -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 items

let max_iterations = 400

let deprivilege items =
  let rec loop items stats iter =
    if iter > max_iterations then
      Error "deprivilege: did not converge (too many rewrite iterations)"
    else
      let code = Insn.assemble items in
      match Insn.find_protected_patterns code with
      | [] -> Ok (items, { stats with iterations = iter })
      | (off, kind) :: _ -> (
          match locate items off with
          | None ->
              Error
                (Printf.sprintf "deprivilege: pattern at %#x outside any instruction" off)
          | Some (start, idx, insn) ->
              if off = start && Insn.is_protected insn then
                Error
                  (Format.asprintf
                     "deprivilege: explicit protected instruction (%a) at %#x"
                     Insn.pp insn off)
              else (
                match plan_rewrite insn with
                | None ->
                    Error
                      (Format.asprintf
                         "deprivilege: cannot rewrite %a (implicit %a at %#x)"
                         Insn.pp insn Insn.pp_protected_kind kind off)
                | Some (Replace (replacement, how)) ->
                    let items =
                      splice items idx (List.map (fun i -> Insn.Ins i) replacement)
                    in
                    let stats =
                      match how with
                      | `Split ->
                          { stats with constants_split = stats.constants_split + 1 }
                      | `Expr ->
                          { stats with exprs_rewritten = stats.exprs_rewritten + 1 }
                    in
                    loop items stats (iter + 1)
                | Some (Insert_nop_between l) -> (
                    match label_index items l with
                    | None ->
                        Error ("deprivilege: branch to unknown label " ^ l)
                    | Some lidx ->
                        let pos = min idx lidx + 1 in
                        let items = insert_at items pos (Insn.Ins Insn.Nop) in
                        loop items
                          { stats with nops_inserted = stats.nops_inserted + 1 }
                          (iter + 1))))
  in
  loop items no_stats 0

let pp_summary ppf s =
  Format.fprintf ppf
    "total=%d explicit=%d implicit(cr0=%d, other-cr=%d, wrmsr=%d)" s.total
    s.explicit_count s.implicit_cr0 s.implicit_cr_other s.implicit_wrmsr

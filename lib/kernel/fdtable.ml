(* Two-level occupancy bitmap over a growable slot array.  Words are
   62 bits: max_int on a 63-bit OCaml int is exactly 62 ones, so a
   "full" word compares equal to max_int with no sign-bit traps. *)

let word_bits = 62
let full_word = max_int

type 'a t = {
  base : int;
  limit : int;
  mutable slots : 'a option array;
  mutable l1 : int array;  (* bit set = slot in use *)
  mutable l2 : int array;  (* bit set = l1 word completely full *)
  mutable count : int;
}

let words_for n = (n + word_bits - 1) / word_bits

let create ?(base = 3) ?(limit = 1 lsl 20) () =
  let cap = 64 in
  {
    base;
    limit;
    slots = Array.make cap None;
    l1 = Array.make (words_for cap) 0;
    l2 = Array.make (words_for (words_for cap)) 0;
    count = 0;
  }

let count t = t.count

let grow t needed =
  let cap = max needed (2 * Array.length t.slots) in
  let slots = Array.make cap None in
  Array.blit t.slots 0 slots 0 (Array.length t.slots);
  let l1 = Array.make (words_for cap) 0 in
  Array.blit t.l1 0 l1 0 (Array.length t.l1);
  let l2 = Array.make (words_for (words_for cap)) 0 in
  Array.blit t.l2 0 l2 0 (Array.length t.l2);
  t.slots <- slots;
  t.l1 <- l1;
  t.l2 <- l2

(* Lowest zero bit of a non-full word: at most [word_bits] constant
   steps, and in the common case (reusing a just-closed low slot) just
   a few. *)
let lowest_zero w =
  let rec go i = if w land (1 lsl i) = 0 then i else go (i + 1) in
  go 0

let alloc t v =
  if t.count >= t.limit then Error Ktypes.Emfile
  else begin
    (* First level-1 word with a free bit, via the full-word summary:
       the level-2 scan touches one word per ~3800 slots, and the
       first non-full summary word pinpoints the level-1 word. *)
    let nwords = Array.length t.l1 in
    let rec find_word j =
      if j * word_bits >= nwords then nwords (* everything full: grow *)
      else if t.l2.(j) = full_word then find_word (j + 1)
      else begin
        let w = (j * word_bits) + lowest_zero t.l2.(j) in
        if w >= nwords then nwords else w
      end
    in
    let w = find_word 0 in
    let idx =
      if w >= nwords then nwords * word_bits
      else (w * word_bits) + lowest_zero t.l1.(w)
    in
    if idx >= Array.length t.slots then grow t (idx + 1);
    let w = idx / word_bits and b = idx mod word_bits in
    t.l1.(w) <- t.l1.(w) lor (1 lsl b);
    if t.l1.(w) = full_word then
      t.l2.(w / word_bits) <-
        t.l2.(w / word_bits) lor (1 lsl (w mod word_bits));
    t.slots.(idx) <- Some v;
    t.count <- t.count + 1;
    Ok (t.base + idx)
  end

let get t fd =
  let idx = fd - t.base in
  if idx < 0 || idx >= Array.length t.slots then None else t.slots.(idx)

let remove t fd =
  let idx = fd - t.base in
  if idx < 0 || idx >= Array.length t.slots then None
  else
    match t.slots.(idx) with
    | None -> None
    | Some _ as v ->
        t.slots.(idx) <- None;
        let w = idx / word_bits and b = idx mod word_bits in
        t.l1.(w) <- t.l1.(w) land lnot (1 lsl b);
        t.l2.(w / word_bits) <-
          t.l2.(w / word_bits) land lnot (1 lsl (w mod word_bits));
        t.count <- t.count - 1;
        v

let iter f t =
  Array.iteri
    (fun idx -> function Some v -> f (t.base + idx) v | None -> ())
    t.slots

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  Array.fill t.l1 0 (Array.length t.l1) 0;
  Array.fill t.l2 0 (Array.length t.l2) 0;
  t.count <- 0

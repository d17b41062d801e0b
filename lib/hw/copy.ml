(* Re-adding the bindings in reverse iteration order rebuilds [src]'s
   buckets in [dst]: [Hashtbl.add] conses onto the bucket head, and
   [Hashtbl.reset] gives [dst] the initial bucket count both tables
   were created with.  So while [src] has not grown past that count,
   [dst] iterates in exactly [src]'s order — shadowed bindings
   included — and callers that fold over a restored table see what
   they would have seen on the source. *)
let hashtbl ?(value = Fun.id) ~src dst =
  Hashtbl.reset dst;
  List.iter
    (fun (k, v) -> Hashtbl.add dst k (value v))
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) src [])

(* [Array.blit] into a major-heap array goes through the write barrier
   element by element unless it can see the elements are floats; typed
   as ints, these stores are plain. *)
let ints ~(src : int array) (dst : int array) =
  if Array.length src <> Array.length dst then invalid_arg "Copy.ints: lengths differ";
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let ints_into ~src dst =
  if Array.length src = Array.length dst then begin
    ints ~src dst;
    dst
  end
  else Array.copy src

type t = { mutable enabled : bool; protected : (Addr.frame, unit) Hashtbl.t }

let create () = { enabled = false; protected = Hashtbl.create 256 }
let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let protect_frame t f = Hashtbl.replace t.protected f ()
let unprotect_frame t f = Hashtbl.remove t.protected f
let is_protected t f = Hashtbl.mem t.protected f
let write_allowed t f = not (t.enabled && is_protected t f)

type t = { mutable cycles : int }

let create () = { cycles = 0 }
let charge t c = t.cycles <- t.cycles + c
let cycles t = t.cycles
let reset t = t.cycles <- 0
let restore ~src dst = dst.cycles <- src.cycles

type snapshot = int

let snapshot t = t.cycles
let cycles_since t s = t.cycles - s

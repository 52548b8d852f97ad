let first l = List.hd l
let pick o = Option.get o
let nth l n = List.nth l n
let look tbl k = Hashtbl.find tbl k
let fine l = List.nth_opt l 0
let lookup k l = List.assoc k l
let first_even l = List.find (fun x -> x mod 2 = 0) l
let lookup_opt k l = List.assoc_opt k l
let first_even_opt l = List.find_opt (fun x -> x mod 2 = 0) l

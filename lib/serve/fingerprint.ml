(* Canonical query identities: raw IEEE-754 bit patterns for the budget
   and the guarantee target, FNV-1a 64-bit for the spanning tree —
   deterministic across runs, processes and machines, unlike the runtime's
   polymorphic hash. *)

type t = {
  network : int;
  window : int;
  k : int;
  budget_bits : int64;
  guarantee_bits : (int64 * int64) option;
  topo_hash : int64;
  samples : int;
}

let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let fnv1a_int64 acc v =
  (* Fold the value in byte by byte, as FNV specifies. *)
  let acc = ref acc in
  for shift = 0 to 7 do
    let byte = Int64.to_int (Int64.shift_right_logical v (8 * shift)) land 0xff in
    acc := Int64.mul (Int64.logxor !acc (Int64.of_int byte)) fnv_prime
  done;
  !acc

let fnv1a_int acc v = fnv1a_int64 acc (Int64.of_int v)

let canonical_budget b = if b = 0. then 0. else b (* maps -0. to 0. *)

let hash_parents ~root parents =
  let acc = ref (fnv1a_int fnv_offset root) in
  Array.iter (fun p -> acc := fnv1a_int !acc p) parents;
  !acc

let make ~network ~window ~k ~budget ~guarantee ~topo_hash ~samples =
  let budget_bits = Int64.bits_of_float (canonical_budget budget) in
  let guarantee_bits =
    Option.map
      (fun (eps, delta) -> (Int64.bits_of_float eps, Int64.bits_of_float delta))
      guarantee
  in
  { network; window; k; budget_bits; guarantee_bits; topo_hash; samples }

(* The raw (ε, δ) bits, never a hash of them: two targets share a key only
   when they are bit-identical, so a plan certified for one target is
   never served for another.  "g0" (no target) cannot collide with
   "g<eps>.<delta>". *)
let guarantee_key = function
  | None -> "g0"
  | Some (eps, delta) -> Printf.sprintf "g%Lx.%Lx" eps delta

let family_key t =
  Printf.sprintf "n%d/w%d/k%d/m%d/t%Lx/%s" t.network t.window t.k t.samples
    t.topo_hash
    (guarantee_key t.guarantee_bits)

let exact_key t = Printf.sprintf "%s/b%Lx" (family_key t) t.budget_bits

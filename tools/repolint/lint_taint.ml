(* R6 — certification taint.

   The safety invariant: a plan or LP solution that did not come
   through the certified chain (the revised simplex, then certification,
   else a refusal) must never reach a dissemination or serving sink.
   The runtime enforces it with provenance gates; this module enforces
   it statically on the typedtree.

   Taint is minted by the registry's uncertified producers (raw
   [Revised.solve] and [Model.solve] outside lib/lp, and the test-only
   dense tableau [Dense_simplex.solve]) and by hand-built solution
   records; it propagates through let bindings,
   tuples/constructors/records, field projections, match scrutinees and
   — conservatively — through calls whose callee is not a registered
   sanitizer; it dies at the certified chain
   ([Robust_plan.*], [Model.solve_certified], [Certify.*], the planner
   fronts).  Cross-module flow uses a summary pass: every top-level
   binding whose definition is tainted is recorded under its
   "Module.value" name, and references from other compilation units pick
   the chain up there.  Findings fire at the sink and print the def-use
   path hop by hop. *)

open Typedtree

(* One def-use hop, newest first in a chain.  A non-empty chain is a
   tainted value; [] is clean. *)
type hop = { h_desc : string; h_file : string; h_line : int }

type t = { summaries : (string, hop list) Hashtbl.t }

let create () = { summaries = Hashtbl.create 64 }

(* Per-file value environment: Ident.unique_name -> chain.  Stamps are
   unique within a compilation unit, so scoping needs no stack. *)
type env = { vars : (string, hop list) Hashtbl.t }

let env_create () = { vars = Hashtbl.create 32 }

let hop desc (loc : Location.t) =
  {
    h_desc = desc;
    h_file = loc.loc_start.pos_fname;
    h_line = loc.loc_start.pos_lnum;
  }

let short_name p =
  match Lint_rules.candidates p with [ full ] -> full | _ :: short :: _ -> short | [] -> Path.name p

let summary_key modname name =
  Lint_rules.normalize_modname modname ^ "." ^ name

(* Cross-module lookup: try the "Module.value" suffix of the resolved
   path against the summary table. *)
let summary_of t (p : Path.t) =
  let rec probe = function
    | [] -> None
    | c :: rest -> (
        match Hashtbl.find_opt t.summaries c with
        | Some chain -> Some chain
        | None -> probe rest)
  in
  probe (Lint_rules.candidates p)

(* Immediate sub-expressions of any node, version-portably: let the
   default iterator enumerate children, but do not recurse.  This is the
   fallback for constructors the evaluator does not model explicitly
   (functions included: a function is as tainted as its body). *)
let children_exprs (e : expression) =
  let acc = ref [] in
  let hook = { Tast_iterator.default_iterator with expr = (fun _ c -> acc := c :: !acc) } in
  Tast_iterator.default_iterator.expr hook e;
  List.rev !acc

let solution_record_type ~path (ty : Types.type_expr) =
  (not (Lint_rules.r6_producer_zone path))
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Lint_rules.type_name_matches Lint_rules.r6_solution_type_names p
  | _ -> false

let join ts = match List.find_opt (fun t -> t <> []) ts with Some t -> t | None -> []

let rec taint_of t (ctx : Lint_ctx.ctx) env (e : expression) : hop list =
  match e.exp_desc with
  | Texp_constant _ -> []
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id -> (
          match Hashtbl.find_opt env.vars (Ident.unique_name id) with
          | Some chain -> chain
          | None -> [])
      | _ -> (
          if Lint_rules.r6_sanitizer p then []
          else
            match summary_of t p with
            | Some chain -> hop (short_name p) e.exp_loc :: chain
            | None -> []))
  | Texp_apply (fn, args) -> (
      let arg_exprs = List.filter_map (fun (_, a) -> a) args in
      match fn.exp_desc with
      | Texp_ident (p, _, _) when Lint_rules.r6_sanitizer p -> []
      | Texp_ident (p, _, _)
        when Lint_rules.r6_producer p
             && not (Lint_rules.r6_producer_zone ctx.path) ->
          [ hop ("raw " ^ short_name p) fn.exp_loc ]
      | Texp_ident (p, _, _) -> (
          (* calling a tainted function (a summarized cross-module value
             or a local binding) taints the result; otherwise taint
             passes conservatively through unknown callees *)
          match taint_of t ctx env fn with
          | _ :: _ as chain -> chain
          | [] -> through_args t ctx env (short_name p) fn.exp_loc arg_exprs)
      | _ ->
          join
            (taint_of t ctx env fn
            :: List.map (taint_of t ctx env) arg_exprs))
  | Texp_let (_, vbs, body) ->
      List.iter (record_vb t ctx env) vbs;
      taint_of t ctx env body
  | Texp_match (scrut, cases, _) ->
      let ts = taint_of t ctx env scrut in
      if ts <> [] then
        List.iter (fun c -> bind_pattern t ctx env c.c_lhs ts) cases;
      join (List.map (fun c -> taint_of t ctx env c.c_rhs) cases)
  | Texp_record { fields; extended_expression; _ } ->
      if solution_record_type ~path:ctx.path e.exp_type then
        [ hop "hand-built solution record" e.exp_loc ]
      else
        let field_taints =
          Array.to_list fields
          |> List.map (fun (_, def) ->
                 match def with
                 | Overridden (_, fe) -> taint_of t ctx env fe
                 | Kept _ -> [])
        in
        let ext =
          match extended_expression with
          | Some b -> taint_of t ctx env b
          | None -> []
        in
        join (ext :: field_taints)
  | Texp_field (b, _, _) -> taint_of t ctx env b
  | Texp_construct (_, _, es) | Texp_tuple es ->
      join (List.map (taint_of t ctx env) es)
  | Texp_variant (_, eo) -> (
      match eo with Some e' -> taint_of t ctx env e' | None -> [])
  | Texp_sequence (_, b) -> taint_of t ctx env b
  | Texp_ifthenelse (_, a, b) ->
      join
        (taint_of t ctx env a
        :: (match b with Some e' -> [ taint_of t ctx env e' ] | None -> []))
  | _ -> join (List.map (taint_of t ctx env) (children_exprs e))

and through_args t ctx env name loc arg_exprs =
  match
    List.find_map
      (fun a ->
        match taint_of t ctx env a with [] -> None | chain -> Some chain)
      arg_exprs
  with
  | Some chain -> hop ("through " ^ name) loc :: chain
  | None -> []

and bind_pattern :
    type k. t -> Lint_ctx.ctx -> env -> k general_pattern -> hop list -> unit =
 fun t ctx env pat chain ->
  ignore t;
  ignore ctx;
  List.iter
    (fun id ->
      Hashtbl.replace env.vars (Ident.unique_name id)
        (hop (Ident.name id) pat.pat_loc :: chain))
    (pat_bound_idents pat)

(* Record a value binding into the environment (tainted bindings only;
   absence means clean).  Called both by the engine's traversal and by
   the evaluator's own [Texp_let] case — unique names make the double
   write idempotent. *)
and record_vb t ctx env (vb : value_binding) =
  match taint_of t ctx env vb.vb_expr with
  | [] -> ()
  | chain -> bind_pattern t ctx env vb.vb_pat chain

(* ---- pass 1: cross-module summaries ---- *)

(* Top-level bindings only: module-level values are the cross-module
   surface.  Local bindings never escape a compilation unit and are
   handled by the per-file environment. *)
let summarize t ctx ~modname (str : structure) =
  let env = env_create () in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              record_vb t ctx env vb;
              List.iter
                (fun id ->
                  match Hashtbl.find_opt env.vars (Ident.unique_name id) with
                  | Some chain ->
                      Hashtbl.replace t.summaries
                        (summary_key modname (Ident.name id))
                        chain
                  | None -> ())
                (pat_bound_idents vb.vb_pat))
            vbs
      | _ -> ())
    str.str_items

(* ---- pass 2: sink checks ---- *)

let render_chain chain =
  chain
  |> List.map (fun h -> Printf.sprintf "%s (%s:%d)" h.h_desc h.h_file h.h_line)
  |> String.concat " <- "

let report_sink ctx ~sink ~loc chain =
  Lint_ctx.report ctx ~rule:"R6" ~loc
    (Printf.sprintf
       "uncertified LP value reaches %s; only the certified chain \
        (Robust_plan / Model.solve_certified / Certify) may feed \
        dissemination or serving.  Def-use path: %s"
       sink (render_chain chain))

(* A call to a registered sink: every argument must be clean. *)
let check_sink_apply t ctx env (p : Path.t) args (loc : Location.t) =
  if Lint_rules.r6_sink p then
    List.iter
      (fun (_, a) ->
        match a with
        | None -> ()
        | Some arg -> (
            match taint_of t ctx env arg with
            | [] -> ()
            | chain -> report_sink ctx ~sink:(short_name p) ~loc chain))
      args

(* Construction of a serving-response record: every field must be clean. *)
let check_sink_record t ctx env (e : expression) =
  match e.exp_desc with
  | Texp_record { fields; _ } -> (
      match Types.get_desc e.exp_type with
      | Types.Tconstr (p, _, _)
        when Lint_rules.r6_sink_record ~path:ctx.Lint_ctx.path p
        ->
          Array.iter
            (fun ((ld : Types.label_description), def) ->
              match def with
              | Overridden (_, fe) -> (
                  match taint_of t ctx env fe with
                  | [] -> ()
                  | chain ->
                      report_sink ctx
                        ~sink:
                          (Printf.sprintf "response field '%s'" ld.lbl_name)
                        ~loc:e.exp_loc chain)
              | Kept _ -> ())
            fields
      | _ -> ())
  | _ -> ()

(* R6 fire: a budget segment's raw affine point reaches a Server
   response; its certified form does not. *)

let ranging () : Lp.Ranging.t = failwith "fixture"
let model () : Lp.Model.t = failwith "fixture"
let segment () : Lp.Model.segment = failwith "fixture"
let report () : Lp.Certify.report = failwith "fixture"
let plan_of (_ : float array) : Prospector.Plan.t = failwith "fixture"

let respond plan certify : Serve.Server.response =
  {
    plan;
    objective = 0.;
    certify;
    guarantee = None;
    source = Serve.Server.Range_hit;
    coalesced = false;
    solve_ms = 0.;
    budget = 10.;
  }

let bad () : Serve.Server.response =
  let x = Lp.Ranging.affine (ranging ()) ~budget:10. in
  let plan = plan_of x in
  { (respond plan (report ())) with plan }

let ok () =
  match Lp.Model.affine_certified (model ()) (segment ()) with
  | Ok (sol, report) ->
      Some { (respond (plan_of sol.Lp.Model.values) report) with budget = 10. }
  | Error _ -> None

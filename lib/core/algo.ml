type ressched = {
  name : string;
  run : ?spec:Speculate.t -> Env.t -> Mp_dag.Dag.t -> Mp_cpa.Schedule.t;
}

type deadline = {
  name : string;
  run : Env.t -> Mp_dag.Dag.t -> deadline:int -> Mp_cpa.Schedule.t option;
  prepare : ?spec:Speculate.t -> Env.t -> Mp_dag.Dag.t -> deadline:int -> Mp_cpa.Schedule.t option;
}

let ressched_of ~bl ~bd : ressched =
  {
    name = Ressched.name ~bl ~bd;
    run = (fun ?spec:_ env dag -> Ressched.schedule ~bl ~bd env dag);
  }

let ressched_main : ressched list =
  List.map
    (fun bd : ressched ->
      {
        name = Bound.name bd;
        run = (fun ?spec:_ env dag -> Ressched.schedule ~bl:BL_CPAR ~bd env dag);
      })
    Bound.all

let ressched_all =
  List.concat_map (fun bl -> List.map (fun bd -> ressched_of ~bl ~bd) Bound.all) Bottom_level.all

let ressched_find name =
  let lname = String.lowercase_ascii name in
  List.find_opt
    (fun (a : ressched) -> String.lowercase_ascii a.name = lname)
    (ressched_all @ ressched_main)

let agg a =
  {
    name = Deadline.aggressive_name a;
    run = (fun env dag ~deadline -> Deadline.aggressive a env dag ~deadline);
    prepare = (fun ?spec:_ env dag -> Deadline.aggressive_prepared a env dag);
  }

let rc c =
  {
    name = Deadline.conservative_name c;
    run = (fun env dag ~deadline -> Deadline.resource_conservative c env dag ~deadline);
    prepare =
      (fun ?spec:_ env dag ->
        let prepared = Deadline.conservative_prepared c env dag in
        fun ~deadline -> prepared ~lambda:0. ~deadline);
  }

let hybrid_prepare ~bounded_fallback ?spec:_ env dag =
  let prepared = Deadline.hybrid_prepared ~bounded_fallback env dag in
  fun ~deadline -> Option.map fst (prepared ~deadline)

let rc_lambda =
  {
    name = "DL_RC_CPAR-l";
    run =
      (fun env dag ~deadline ->
        Option.map fst (Deadline.hybrid ~bounded_fallback:false env dag ~deadline));
    prepare = hybrid_prepare ~bounded_fallback:false;
  }

let rcbd_lambda =
  {
    name = "DL_RCBD_CPAR-l";
    run =
      (fun env dag ~deadline ->
        Option.map fst (Deadline.hybrid ~bounded_fallback:true env dag ~deadline));
    prepare = hybrid_prepare ~bounded_fallback:true;
  }

let deadline_main =
  [ agg DL_BD_ALL; agg DL_BD_CPA; agg DL_BD_CPAR; rc DL_RC_CPA; rc DL_RC_CPAR ]

let deadline_hybrid = [ agg DL_BD_CPA; rc DL_RC_CPAR; rc_lambda; rcbd_lambda ]

let deadline_all = deadline_main @ [ rc_lambda; rcbd_lambda ]

let deadline_find name =
  let lname = String.lowercase_ascii name in
  List.find_opt (fun a -> String.lowercase_ascii a.name = lname) deadline_all

let find name =
  match ressched_find name with
  | Some a -> Some (`Ressched a)
  | None -> (
      match deadline_find name with Some a -> Some (`Deadline a) | None -> None)

let all_names =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun name ->
      if Hashtbl.mem seen name then false
      else begin
        Hashtbl.add seen name ();
        true
      end)
    (List.map (fun (a : ressched) -> a.name) (ressched_main @ ressched_all)
    @ List.map (fun (a : deadline) -> a.name) deadline_all)

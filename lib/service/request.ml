module Json = Mp_prelude.Json
module Dag = Mp_dag.Dag
module Task = Mp_dag.Task

type deadline_spec = No_deadline | By of int | Tightest

type t =
  | Submit_dag of { dag : Dag.t; algo : string; deadline : deadline_spec }
  | Reserve of { start : int; dur : int; procs : int }
  | Probe of { start : int; dur : int; procs : int }
  | Cancel of { start : int; finish : int; procs : int }
  | Explain of { dag : Dag.t; algo : string; deadline : int option; format : string }
  | Stats of { last : int }

let kind = function
  | Submit_dag _ -> "submit_dag"
  | Reserve _ -> "reserve"
  | Probe _ -> "probe"
  | Cancel _ -> "cancel"
  | Explain _ -> "explain"
  | Stats _ -> "stats"

let cost = function
  | Reserve _ | Probe _ | Cancel _ | Stats _ -> 1
  | Submit_dag { dag; _ } | Explain { dag; _ } -> Dag.n dag

type envelope = { id : int; site : int; arrival : int; budget : int option; payload : t }

(* --- DAG <-> JSON ------------------------------------------------------ *)

let dag_to_json dag =
  let task (tk : Task.t) = Json.Arr [ Num tk.seq; Num tk.alpha ] in
  let edge (a, b) = Json.Arr [ Num (float_of_int a); Num (float_of_int b) ] in
  Json.Obj
    [
      ("tasks", Json.Arr (Array.to_list (Array.map task (Dag.tasks dag))));
      ("edges", Json.Arr (List.map edge (Dag.edges dag)));
    ]

let dag_of_json j =
  let ( let* ) = Result.bind in
  let* tasks =
    match Json.arr j "tasks" with
    | None -> Error "dag: missing tasks"
    | Some l ->
        List.fold_left
          (fun acc tj ->
            let* acc = acc in
            match tj with
            | Json.Arr [ Json.Num seq; Json.Num alpha ] -> Ok ((seq, alpha) :: acc)
            | _ -> Error "dag: task must be [seq,alpha]")
          (Ok []) l
  in
  let* edges =
    match Json.arr j "edges" with
    | None -> Error "dag: missing edges"
    | Some l ->
        List.fold_left
          (fun acc ej ->
            let* acc = acc in
            match ej with
            | Json.Arr [ a; b ] -> (
                match (Json.to_int a, Json.to_int b) with
                | Some a, Some b -> Ok ((a, b) :: acc)
                | _ -> Error "dag: edge must be [pred,succ]")
            | _ -> Error "dag: edge must be [pred,succ]")
          (Ok []) l
  in
  let tasks = Array.of_list (List.rev tasks) in
  match
    Dag.make
      (Array.mapi (fun id (seq, alpha) -> Task.make ~id ~seq ~alpha) tasks)
      (List.rev edges)
  with
  | dag -> Ok dag
  | exception Invalid_argument msg -> Error ("dag: " ^ msg)

(* --- request <-> JSON -------------------------------------------------- *)

let int_opt = function None -> Json.Null | Some i -> Json.Num (float_of_int i)

let deadline_spec_to_json = function
  | No_deadline -> Json.Null
  | By k -> Json.Num (float_of_int k)
  | Tightest -> Json.Str "tightest"

let deadline_spec_of_json = function
  | None | Some Json.Null -> Ok No_deadline
  | Some (Json.Str "tightest") -> Ok Tightest
  | Some j -> (
      match Json.to_int j with
      | Some k -> Ok (By k)
      | None -> Error "deadline must be null, an int, or \"tightest\"")

let to_json r =
  let tag = ("request", Json.Str (kind r)) in
  let n name v = (name, Json.Num (float_of_int v)) in
  match r with
  | Reserve { start; dur; procs } -> Json.Obj [ tag; n "start" start; n "dur" dur; n "procs" procs ]
  | Probe { start; dur; procs } -> Json.Obj [ tag; n "start" start; n "dur" dur; n "procs" procs ]
  | Cancel { start; finish; procs } ->
      Json.Obj [ tag; n "start" start; n "finish" finish; n "procs" procs ]
  | Submit_dag { dag; algo; deadline } ->
      Json.Obj
        [
          tag;
          ("algo", Json.Str algo);
          ("deadline", deadline_spec_to_json deadline);
          ("dag", dag_to_json dag);
        ]
  | Explain { dag; algo; deadline; format } ->
      Json.Obj
        [
          tag;
          ("algo", Json.Str algo);
          ("deadline", int_opt deadline);
          ("format", Json.Str format);
          ("dag", dag_to_json dag);
        ]
  | Stats { last } -> Json.Obj [ tag; n "last" last ]

let req_int j name =
  match Json.int_ j name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "request field %S must be an int" name)

let opt_int j name =
  match Json.field j name with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "request field %S must be null or an int" name))

let of_json j =
  let ( let* ) = Result.bind in
  match Json.str j "request" with
  | None -> Error "missing \"request\" tag"
  | Some (("reserve" | "probe") as k) ->
      let* start = req_int j "start" in
      let* dur = req_int j "dur" in
      let* procs = req_int j "procs" in
      Ok (if k = "reserve" then Reserve { start; dur; procs } else Probe { start; dur; procs })
  | Some "cancel" ->
      let* start = req_int j "start" in
      let* finish = req_int j "finish" in
      let* procs = req_int j "procs" in
      Ok (Cancel { start; finish; procs })
  | Some "submit_dag" -> (
      let* deadline = deadline_spec_of_json (Json.field j "deadline") in
      match (Json.str j "algo", Json.field j "dag") with
      | Some algo, Some dj ->
          let* dag = dag_of_json dj in
          Ok (Submit_dag { dag; algo; deadline })
      | _ -> Error "submit_dag: missing algo or dag")
  | Some "explain" -> (
      let* deadline = opt_int j "deadline" in
      match (Json.str j "algo", Json.str j "format", Json.field j "dag") with
      | Some algo, Some format, Some dj ->
          let* dag = dag_of_json dj in
          Ok (Explain { dag; algo; deadline; format })
      | _ -> Error "explain: missing algo, format, or dag")
  | Some "stats" ->
      let* last = req_int j "last" in
      Ok (Stats { last })
  | Some other -> Error (Printf.sprintf "unknown request kind %S" other)

let envelope_to_json e =
  Json.Obj
    [
      ("id", Json.Num (float_of_int e.id));
      ("site", Json.Num (float_of_int e.site));
      ("arrival", Json.Num (float_of_int e.arrival));
      ("budget", int_opt e.budget);
      ("payload", to_json e.payload);
    ]

let envelope_of_json j =
  let ( let* ) = Result.bind in
  let* id = req_int j "id" in
  let* site = req_int j "site" in
  let* arrival = req_int j "arrival" in
  let* budget = opt_int j "budget" in
  match Json.field j "payload" with
  | None -> Error "envelope: missing payload"
  | Some pj ->
      let* payload = of_json pj in
      Ok { id; site; arrival; budget; payload }

let to_string r = Json.to_string (to_json r)

let of_string text =
  match Json.of_string text with Error _ as e -> e | Ok j -> of_json j

let envelope_to_string e = Json.to_string (envelope_to_json e)

let envelope_of_string text =
  match Json.of_string text with Error _ as e -> e | Ok j -> envelope_of_json j

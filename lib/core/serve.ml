module Engine = Mp_service.Engine
module Request = Mp_service.Request
module Response = Mp_service.Response
module Calendar = Mp_platform.Calendar
module Schedule = Mp_cpa.Schedule
module Journal = Mp_forensics.Journal
module Analytics = Mp_forensics.Analytics
module Render = Mp_forensics.Render

let unknown_algo name =
  Response.Error
    (Printf.sprintf "unknown algorithm %S (known: %s)" name (String.concat ", " Algo.all_names))

let env ~q cal = Env.make ~calendar:cal ~q:(float_of_int q)

let submit ?spec ~algo ~deadline ~q cal dag =
  match Algo.find algo with
  | None -> unknown_algo algo
  | Some (`Ressched a) -> (
      match (deadline : Request.deadline_spec) with
      | No_deadline -> Response.Scheduled { schedule = a.Algo.run (env ~q cal) dag; deadline = None }
      | By _ | Tightest ->
          Response.Error
            (Printf.sprintf
               "%S is a RESSCHED algorithm (no deadline support); submit without a deadline or \
                pick a RESSCHEDDL algorithm"
               algo))
  | Some (`Deadline a) -> (
      let env = env ~q cal in
      match (deadline : Request.deadline_spec) with
      | By k -> (
          match a.Algo.run env dag ~deadline:k with
          | Some schedule -> Response.Scheduled { schedule; deadline = Some k }
          | None -> Response.Infeasible { algo; deadline = Some k })
      | No_deadline | Tightest -> (
          (* the CLI's --deadline-omitted behaviour: search for the
             tightest feasible deadline *)
          match Deadline.tightest ?spec (a.Algo.prepare ?spec env dag) env dag with
          | Some (k, schedule) -> Response.Scheduled { schedule; deadline = Some k }
          | None -> Response.Infeasible { algo; deadline = None }))

let render_explain ~header ~format ~base sched entries =
  let turnaround = Schedule.turnaround sched in
  let until = max 1 turnaround in
  let final_cal = List.fold_left Calendar.reserve base (Schedule.reservations sched) in
  let analytics = Analytics.analyze final_cal ~from_:0 ~until in
  let slots =
    Array.to_list
      (Array.mapi
         (fun i (s : Schedule.slot) ->
           { Render.label = string_of_int i; start = s.start; finish = s.finish; procs = s.procs })
         sched.Schedule.slots)
  in
  match format with
  | "text" ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf (Printf.sprintf "%s; turnaround %d s\n\n" header turnaround);
      Buffer.add_string buf (Journal.story entries);
      Buffer.add_string buf (Format.asprintf "@.%a@." Analytics.pp analytics);
      Ok (Buffer.contents buf)
  | "json" ->
      Ok
        (Journal.to_jsonl entries
        ^ Printf.sprintf "{\"event\":\"analytics\",\"data\":%s}\n" (Analytics.to_json analytics))
  | "svg" -> Ok (Render.gantt_svg ~base ~slots ())
  | "html" ->
      Ok
        (Render.html ~title:header
           ~gantt:(Render.gantt_svg ~base ~slots ())
           ~profile:(Render.profile_svg base ~from_:0 ~until)
           ~analytics:(Format.asprintf "%a" Analytics.pp analytics)
           ~story:(Journal.story entries))
  | other -> Result.Error (Printf.sprintf "unknown format %S (text, json, svg, html)" other)

let explain ?spec ~algo ~deadline ~format ~q cal dag =
  let env = env ~q cal in
  let journaled header run =
    let header =
      Printf.sprintf "%s on %d tasks, p=%d q=%d" header (Mp_dag.Dag.n dag) (Calendar.procs cal) q
    in
    match Journal.record run with
    | exception Failure msg -> Response.Error msg
    | sched, entries -> (
        match render_explain ~header ~format ~base:cal sched entries with
        | Ok report -> Response.Explained report
        | Result.Error msg -> Response.Error msg)
  in
  match Algo.find algo with
  | None -> unknown_algo algo
  | Some (`Ressched a) ->
      journaled (Printf.sprintf "algorithm %s" a.Algo.name) (fun () -> a.Algo.run env dag)
  | Some (`Deadline a) -> (
      (* resolve the deadline before journaling: the tightest search
         probes many deadlines, and journaling only the final run keeps
         the story readable (the journal is still off here, so the
         resolution may speculate) *)
      let resolved =
        match deadline with
        | Some k -> Some (k, "")
        | None ->
            Deadline.tightest ?spec (a.Algo.prepare ?spec env dag) env dag
            |> Option.map (fun (k, _) -> (k, " (tightest)"))
      in
      match resolved with
      | None -> Response.Error (Printf.sprintf "no feasible deadline found for %s" a.Algo.name)
      | Some (k, note) ->
          journaled (Printf.sprintf "algorithm %s, deadline %d s%s" a.Algo.name k note) (fun () ->
              match a.Algo.run env dag ~deadline:k with
              | Some sched -> sched
              | None -> failwith (Printf.sprintf "deadline %d cannot be met by %s" k a.Algo.name)))

let handlers ?spec () = { Engine.submit = submit ?spec; explain = explain ?spec }

let engine ?spec ~sites () = Engine.create ~handlers:(handlers ?spec ()) ~sites ()

(* Outside view of one [Engine.run]: replays each site's request and
   outcome stream to classify errors, rebuild what the site calendar must
   hold, and recover the simulated queue, then digests the outcomes. *)

module Request = Mp_service.Request
module Response = Mp_service.Response
module Engine = Mp_service.Engine
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation

(* A multiset of point reservations: the engine may hold two equal
   grants, and a cancel releases one of them. *)
module Held = struct
  type t = (Reservation.t, int) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let mem (t : t) r = Hashtbl.mem t r
  let add (t : t) r = Hashtbl.replace t r (1 + Option.value ~default:0 (Hashtbl.find_opt t r))

  let remove (t : t) r =
    match Hashtbl.find_opt t r with
    | Some 1 -> Hashtbl.remove t r
    | Some n -> Hashtbl.replace t r (n - 1)
    | None -> ()

  let to_sorted_list (t : t) =
    List.sort compare
      (Hashtbl.fold (fun r n acc -> List.init n (fun _ -> r) @ acc) t [])
end

type verdict = Ok_response | Expected_error | Unexpected

(* How one serviced request's response reads against the site's held
   set.  The stream misses on purpose in two ways: a [Cancel] of a triple
   the site does not hold, and a deadline sent to a RESSCHED algorithm.
   Every other [Error] — and any response that cannot answer its request
   — is a fault.  An [Infeasible] with no deadline means the tightest
   search found nothing even at a million times the lower bound, which
   no calendar in these workloads can force. *)
let classify held (req : Request.t) (resp : Response.t) =
  match (req, resp) with
  | Reserve _, (Granted | Rejected _) | Probe _, Available _ -> Ok_response
  | Cancel { start; finish; procs }, Cancelled ->
      if Held.mem held { Reservation.start; finish; procs } then Ok_response else Unexpected
  | Cancel { start; finish; procs }, Error _ ->
      if Held.mem held { Reservation.start; finish; procs } then Unexpected else Expected_error
  | Submit_dag _, (Scheduled _ | Infeasible { deadline = Some _; _ }) -> Ok_response
  | Submit_dag { algo; deadline = By _ | Tightest; _ }, Error _ -> (
      match Mp_core.Algo.find algo with Some (`Ressched _) -> Expected_error | _ -> Unexpected)
  | Explain _, Explained _ -> Ok_response
  | _ -> Unexpected

(* A RESSCHEDDL request answered by a tightest-deadline search. *)
let is_tightest_solve (req : Request.t) (resp : Response.t) =
  let deadline_algo algo =
    match Mp_core.Algo.find algo with Some (`Deadline _) -> true | _ -> false
  in
  match (req, resp) with
  | Submit_dag { algo; deadline = No_deadline | Tightest; _ }, (Scheduled _ | Infeasible _) ->
      deadline_algo algo
  | Explain { algo; deadline = None; _ }, Explained _ -> deadline_algo algo
  | _ -> false

type site_view = {
  held : Reservation.t list;  (** point reservations still granted, sorted *)
  expected : Reservation.t list;  (** everything the calendar must hold *)
}

type t = {
  expected_errors : int;
  unexpected : int;
  shed : int;
  solves : int;  (** tightest-deadline searches serviced *)
  waits : int array;  (** simulated queue delay of each admitted request *)
  queue_peak : int;  (** largest simulated in-flight depth at any site *)
  sites : site_view array;
}

let replay ~sites (envelopes : Request.envelope array) (outcomes : Engine.outcome list) =
  let per_site = Array.make sites [] in
  List.iter
    (fun (o : Engine.outcome) ->
      if o.site >= 0 && o.site < sites then per_site.(o.site) <- o :: per_site.(o.site))
    outcomes;
  let expected_errors = ref 0 and unexpected = ref 0 and shed = ref 0 and solves = ref 0 in
  let waits = ref [] and queue_peak = ref 0 in
  (* outcomes naming no site never reached service *)
  List.iter
    (fun (o : Engine.outcome) -> if o.site < 0 || o.site >= sites then incr unexpected)
    outcomes;
  let views =
    Array.map
      (fun rev_outcomes ->
        (* service order: ⟨arrival, id⟩ *)
        let ordered =
          List.sort
            (fun (a : Engine.outcome) b ->
              match compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c)
            rev_outcomes
        in
        let held = Held.create () and dag_reservations = ref [] in
        let inflight = Queue.create () in
        List.iter
          (fun (o : Engine.outcome) ->
            let req = envelopes.(o.id).payload in
            match o.response with
            | Overloaded -> incr shed
            | resp -> (
                waits := (o.started - o.arrival) :: !waits;
                while (not (Queue.is_empty inflight)) && Queue.peek inflight <= o.arrival do
                  ignore (Queue.pop inflight)
                done;
                Queue.push (o.started + max 1 (Request.cost req)) inflight;
                queue_peak := max !queue_peak (Queue.length inflight);
                if is_tightest_solve req resp then incr solves;
                (match classify held req resp with
                | Ok_response -> ()
                | Expected_error -> incr expected_errors
                | Unexpected -> incr unexpected);
                match (req, resp) with
                | Reserve { start; dur; procs }, Granted ->
                    Held.add held { Reservation.start; finish = start + dur; procs }
                | Cancel { start; finish; procs }, Cancelled ->
                    Held.remove held { Reservation.start; finish; procs }
                | Submit_dag _, Scheduled { schedule; _ } ->
                    dag_reservations :=
                      List.rev_append (Mp_cpa.Schedule.reservations schedule) !dag_reservations
                | _ -> ()))
          ordered;
        let held = Held.to_sorted_list held in
        { held; expected = List.rev_append held !dag_reservations })
      per_site
  in
  {
    expected_errors = !expected_errors;
    unexpected = !unexpected;
    shed = !shed;
    solves = !solves;
    waits = Array.of_list !waits;
    queue_peak = !queue_peak;
    sites = views;
  }

(* Availability as maximal constant runs, so two calendars holding the
   same reservations compare equal however their breakpoints were
   reached. *)
let profile cal =
  List.rev
    (Calendar.fold_segments cal ~from_:min_int ~until:max_int ~init:[]
       ~f:(fun acc ~start ~finish ~avail ->
         match acc with
         | (s, _, a) :: rest when a = avail -> (s, finish, a) :: rest
         | _ -> (start, finish, avail) :: acc))

(* The site invariants, checked from outside: the granted set the engine
   reports is the one the stream implies, and the calendar holds exactly
   those grants plus every scheduled DAG — so it never overcommits.
   [Error] names the first site that disagrees. *)
let check_calendars t engine ~procs =
  let bad = ref None in
  Array.iteri
    (fun site view ->
      if !bad = None then begin
        let granted = List.sort compare (Engine.granted engine ~site) in
        if granted <> view.held then
          bad := Some (Printf.sprintf "site %d: granted set differs from the replay" site)
        else
          match Calendar.of_reservations ~procs view.expected with
          | exception Calendar.Overcommitted _ ->
              bad := Some (Printf.sprintf "site %d: granted reservations overcommit" site)
          | rebuilt ->
              if profile rebuilt <> profile (Engine.calendar engine ~site) then
                bad := Some (Printf.sprintf "site %d: calendar differs from its reservations" site)
      end)
    t.sites;
  match !bad with None -> Ok () | Some msg -> Error msg

(* Digest of a run's outcomes: id, site, simulated start and the
   response, in id order. *)
let digest (outcomes : Engine.outcome list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (o : Engine.outcome) ->
      Printf.bprintf b "%d %d %d %s\n" o.id o.site o.started (Response.to_string o.response))
    outcomes;
  Digest.to_hex (Digest.string (Buffer.contents b))

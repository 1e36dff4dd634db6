module Json = Mp_prelude.Json
module Schedule = Mp_cpa.Schedule

type digest = { d_id : int; d_arrival : int; d_started : int; d_outcome : string }

type stats = {
  requests : int;
  counts : (string * int) list;
  shed_queue : int;
  shed_budget : int;
  queue_depth : int;
  queue_peak : int;
  held : int;
  breakpoints : int;
  recent : digest list;
}

type t =
  | Granted
  | Rejected of int option
  | Available of int option
  | Scheduled of { schedule : Mp_cpa.Schedule.t; deadline : int option }
  | Infeasible of { algo : string; deadline : int option }
  | Cancelled
  | Explained of string
  | Overloaded
  | Stats of stats
  | Error of string

(* Canonical kind order: index into the engine's per-site count array and
   the order [Stats.counts] is reported in. *)
let kind_index = function
  | Granted -> 0
  | Rejected _ -> 1
  | Available _ -> 2
  | Scheduled _ -> 3
  | Infeasible _ -> 4
  | Cancelled -> 5
  | Explained _ -> 6
  | Overloaded -> 7
  | Stats _ -> 8
  | Error _ -> 9

let kind_names =
  [|
    "granted"; "rejected"; "available"; "scheduled"; "infeasible"; "cancelled"; "explained";
    "overloaded"; "stats"; "error";
  |]

let kinds = Array.to_list kind_names
let n_kinds = Array.length kind_names
let kind r = kind_names.(kind_index r)

let int_opt = function None -> Json.Null | Some i -> Json.Num (float_of_int i)

let to_json r =
  let tag = ("response", Json.Str (kind r)) in
  match r with
  | Granted | Cancelled | Overloaded -> Json.Obj [ tag ]
  | Rejected s -> Json.Obj [ tag; ("suggestion", int_opt s) ]
  | Available s -> Json.Obj [ tag; ("start", int_opt s) ]
  | Scheduled { schedule; deadline } ->
      let slot (s : Schedule.slot) =
        Json.Arr
          [
            Num (float_of_int s.start); Num (float_of_int s.finish); Num (float_of_int s.procs);
          ]
      in
      Json.Obj
        [
          tag;
          ("deadline", int_opt deadline);
          ("slots", Json.Arr (Array.to_list (Array.map slot schedule.Schedule.slots)));
        ]
  | Infeasible { algo; deadline } ->
      Json.Obj [ tag; ("algo", Json.Str algo); ("deadline", int_opt deadline) ]
  | Explained report -> Json.Obj [ tag; ("report", Json.Str report) ]
  | Stats s ->
      let digest d =
        Json.Arr
          [
            Num (float_of_int d.d_id); Num (float_of_int d.d_arrival);
            Num (float_of_int d.d_started); Str d.d_outcome;
          ]
      in
      let n v = Json.Num (float_of_int v) in
      Json.Obj
        [
          tag;
          ("requests", n s.requests);
          ("counts", Json.Obj (List.map (fun (k, v) -> (k, n v)) s.counts));
          ("shed_queue", n s.shed_queue);
          ("shed_budget", n s.shed_budget);
          ("queue_depth", n s.queue_depth);
          ("queue_peak", n s.queue_peak);
          ("held", n s.held);
          ("breakpoints", n s.breakpoints);
          ("recent", Json.Arr (List.map digest s.recent));
        ]
  | Error msg -> Json.Obj [ tag; ("message", Json.Str msg) ]

let to_string r = Json.to_string (to_json r)

let opt_int_field j name =
  match Json.field j name with
  | None | Some Json.Null -> Ok None
  | Some (Json.Num f) -> Ok (Some (int_of_float f))
  | Some _ -> Result.Error (Printf.sprintf "response field %S must be an int or null" name)

let of_json j =
  let ( let* ) = Result.bind in
  match Json.str j "response" with
  | None -> Result.Error "missing \"response\" tag"
  | Some "granted" -> Ok Granted
  | Some "cancelled" -> Ok Cancelled
  | Some "overloaded" -> Ok Overloaded
  | Some "rejected" ->
      let* s = opt_int_field j "suggestion" in
      Ok (Rejected s)
  | Some "available" ->
      let* s = opt_int_field j "start" in
      Ok (Available s)
  | Some "scheduled" -> (
      let* deadline = opt_int_field j "deadline" in
      match Json.arr j "slots" with
      | None -> Result.Error "scheduled response: missing slots"
      | Some slots ->
          let slot = function
            | Json.Arr [ Json.Num s; Json.Num f; Json.Num p ] ->
                Ok
                  ({ start = int_of_float s; finish = int_of_float f; procs = int_of_float p }
                    : Schedule.slot)
            | _ -> Result.Error "scheduled response: slot must be [start,finish,procs]"
          in
          let* slots =
            List.fold_left
              (fun acc sj ->
                let* acc = acc in
                let* s = slot sj in
                Ok (s :: acc))
              (Ok []) slots
          in
          Ok (Scheduled { schedule = { Schedule.slots = Array.of_list (List.rev slots) }; deadline }))
  | Some "infeasible" -> (
      let* deadline = opt_int_field j "deadline" in
      match Json.str j "algo" with
      | Some algo -> Ok (Infeasible { algo; deadline })
      | None -> Result.Error "infeasible response: missing algo")
  | Some "explained" -> (
      match Json.str j "report" with
      | Some report -> Ok (Explained report)
      | None -> Result.Error "explained response: missing report")
  | Some "stats" ->
      let req name =
        match Json.int_ j name with
        | Some v -> Ok v
        | None -> Result.Error (Printf.sprintf "stats response: field %S must be an int" name)
      in
      let* requests = req "requests" in
      let* counts =
        match Json.obj j "counts" with
        | None -> Result.Error "stats response: missing counts"
        | Some fields ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                match Json.to_int v with
                | Some v -> Ok ((k, v) :: acc)
                | None -> Result.Error "stats response: counts must be ints")
              (Ok []) fields
            |> Result.map List.rev
      in
      let* shed_queue = req "shed_queue" in
      let* shed_budget = req "shed_budget" in
      let* queue_depth = req "queue_depth" in
      let* queue_peak = req "queue_peak" in
      let* held = req "held" in
      let* breakpoints = req "breakpoints" in
      let* recent =
        match Json.arr j "recent" with
        | None -> Result.Error "stats response: missing recent"
        | Some l ->
            List.fold_left
              (fun acc dj ->
                let* acc = acc in
                match dj with
                | Json.Arr [ Json.Num id; Json.Num arrival; Json.Num started; Json.Str outcome ]
                  ->
                    Ok
                      ({
                         d_id = int_of_float id;
                         d_arrival = int_of_float arrival;
                         d_started = int_of_float started;
                         d_outcome = outcome;
                       }
                      :: acc)
                | _ ->
                    Result.Error "stats response: digest must be [id,arrival,started,outcome]")
              (Ok []) l
            |> Result.map List.rev
      in
      Ok
        (Stats
           {
             requests; counts; shed_queue; shed_budget; queue_depth; queue_peak; held;
             breakpoints; recent;
           })
  | Some "error" -> (
      match Json.str j "message" with
      | Some msg -> Ok (Error msg)
      | None -> Result.Error "error response: missing message")
  | Some other -> Result.Error (Printf.sprintf "unknown response kind %S" other)

let of_string text =
  match Json.of_string text with Result.Error _ as e -> e | Ok j -> of_json j

let pp ppf r = Format.pp_print_string ppf (to_string r)

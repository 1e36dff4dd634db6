open Mp_platform

(* ------------------------------------------------------------------ *)
(* Reservation *)

let test_reservation_basics () =
  let r = Reservation.make ~start:10 ~finish:30 ~procs:4 in
  Alcotest.(check int) "duration" 20 (Reservation.duration r);
  Alcotest.(check int) "cpu-seconds" 80 (Reservation.cpu_seconds r);
  Alcotest.(check (float 1e-9)) "cpu-hours" (80. /. 3600.) (Reservation.cpu_hours r)

let test_reservation_invalid () =
  Alcotest.check_raises "empty interval" (Invalid_argument "Reservation.make: start >= finish")
    (fun () -> ignore (Reservation.make ~start:5 ~finish:5 ~procs:1));
  Alcotest.check_raises "zero procs" (Invalid_argument "Reservation.make: procs <= 0") (fun () ->
      ignore (Reservation.make ~start:0 ~finish:1 ~procs:0))

let test_reservation_overlaps () =
  let r1 = Reservation.make ~start:0 ~finish:10 ~procs:1 in
  let r2 = Reservation.make ~start:10 ~finish:20 ~procs:1 in
  let r3 = Reservation.make ~start:5 ~finish:15 ~procs:1 in
  Alcotest.(check bool) "adjacent don't overlap" false (Reservation.overlaps r1 r2);
  Alcotest.(check bool) "r1 r3 overlap" true (Reservation.overlaps r1 r3);
  Alcotest.(check bool) "r2 r3 overlap" true (Reservation.overlaps r2 r3)

let test_reservation_clip () =
  let r = Reservation.make ~start:0 ~finish:10 ~procs:2 in
  (match Reservation.clip r ~from_:5 with
  | Some c ->
      Alcotest.(check int) "clipped start" 5 c.start;
      Alcotest.(check int) "finish kept" 10 c.finish
  | None -> Alcotest.fail "expected Some");
  Alcotest.(check bool) "fully past" true (Reservation.clip r ~from_:10 = None);
  Alcotest.(check bool) "untouched" true (Reservation.clip r ~from_:(-5) = Some r)

let test_reservation_shift () =
  let r = Reservation.make ~start:5 ~finish:10 ~procs:2 in
  let s = Reservation.shift r (-3) in
  Alcotest.(check int) "start" 2 s.start;
  Alcotest.(check int) "finish" 7 s.finish

(* ------------------------------------------------------------------ *)
(* Calendar: unit tests *)

let test_calendar_empty () =
  let c = Calendar.create ~procs:8 in
  Alcotest.(check int) "everything available" 8 (Calendar.available_at c 0);
  Alcotest.(check int) "in the past too" 8 (Calendar.available_at c (-1000));
  Alcotest.(check int) "far future" 8 (Calendar.available_at c 1_000_000)

let test_calendar_reserve () =
  let c = Calendar.create ~procs:8 in
  let c = Calendar.reserve c (Reservation.make ~start:10 ~finish:20 ~procs:3) in
  Alcotest.(check int) "before" 8 (Calendar.available_at c 9);
  Alcotest.(check int) "at start" 5 (Calendar.available_at c 10);
  Alcotest.(check int) "inside" 5 (Calendar.available_at c 19);
  Alcotest.(check int) "at finish" 8 (Calendar.available_at c 20)

let test_calendar_overcommit () =
  let c = Calendar.create ~procs:4 in
  let c = Calendar.reserve c (Reservation.make ~start:0 ~finish:10 ~procs:3) in
  let bad = Reservation.make ~start:5 ~finish:15 ~procs:2 in
  Alcotest.(check bool) "cannot reserve" false (Calendar.can_reserve c bad);
  Alcotest.(check bool) "reserve_opt none" true (Calendar.reserve_opt c bad = None);
  (try
     ignore (Calendar.reserve c bad);
     Alcotest.fail "expected Overcommitted"
   with Calendar.Overcommitted _ -> ())

let test_calendar_exact_fill () =
  let c = Calendar.create ~procs:4 in
  let c = Calendar.reserve c (Reservation.make ~start:0 ~finish:10 ~procs:2) in
  let c = Calendar.reserve c (Reservation.make ~start:0 ~finish:10 ~procs:2) in
  Alcotest.(check int) "zero available" 0 (Calendar.available_at c 5);
  Alcotest.(check int) "free after" 4 (Calendar.available_at c 10)

let test_calendar_persistence () =
  let c0 = Calendar.create ~procs:4 in
  let c1 = Calendar.reserve c0 (Reservation.make ~start:0 ~finish:10 ~procs:4) in
  Alcotest.(check int) "original untouched" 4 (Calendar.available_at c0 5);
  Alcotest.(check int) "new sees reservation" 0 (Calendar.available_at c1 5)

let test_calendar_min_avg () =
  let c = Calendar.create ~procs:10 in
  let c = Calendar.reserve c (Reservation.make ~start:0 ~finish:10 ~procs:4) in
  let c = Calendar.reserve c (Reservation.make ~start:5 ~finish:15 ~procs:2) in
  Alcotest.(check int) "min over [0,15)" 4 (Calendar.min_available c ~from_:0 ~until:15);
  (* availability: [0,5)=6, [5,10)=4, [10,15)=8 -> avg = (30+20+40)/15 = 6 *)
  Alcotest.(check (float 1e-9)) "average" 6. (Calendar.average_available c ~from_:0 ~until:15)

let test_calendar_segments () =
  let c = Calendar.create ~procs:10 in
  let c = Calendar.reserve c (Reservation.make ~start:2 ~finish:4 ~procs:5) in
  let segs = Calendar.segments c ~from_:0 ~until:6 in
  Alcotest.(check (list (triple int int int)))
    "segments" [ (0, 2, 10); (2, 4, 5); (4, 6, 10) ] segs

let test_earliest_fit_simple () =
  let c = Calendar.create ~procs:4 in
  let c = Calendar.reserve c (Reservation.make ~start:0 ~finish:100 ~procs:3) in
  (* 1 proc available until 100 *)
  Alcotest.(check (option int)) "1 proc fits now" (Some 0)
    (Calendar.earliest_fit c ~after:0 ~procs:1 ~dur:10);
  Alcotest.(check (option int)) "2 procs wait" (Some 100)
    (Calendar.earliest_fit c ~after:0 ~procs:2 ~dur:10);
  Alcotest.(check (option int)) "too many procs" None
    (Calendar.earliest_fit c ~after:0 ~procs:5 ~dur:10)

let test_earliest_fit_hole_too_small () =
  let c = Calendar.create ~procs:4 in
  let c = Calendar.reserve c (Reservation.make ~start:0 ~finish:10 ~procs:4) in
  let c = Calendar.reserve c (Reservation.make ~start:15 ~finish:30 ~procs:4) in
  (* hole [10,15) of width 5 *)
  Alcotest.(check (option int)) "fits in hole" (Some 10)
    (Calendar.earliest_fit c ~after:0 ~procs:2 ~dur:5);
  Alcotest.(check (option int)) "hole too small" (Some 30)
    (Calendar.earliest_fit c ~after:0 ~procs:2 ~dur:6)

let test_earliest_fit_after () =
  let c = Calendar.create ~procs:4 in
  Alcotest.(check (option int)) "respects after" (Some 42)
    (Calendar.earliest_fit c ~after:42 ~procs:4 ~dur:10)

let test_latest_fit_simple () =
  let c = Calendar.create ~procs:4 in
  Alcotest.(check (option int)) "end-aligned" (Some 90)
    (Calendar.latest_fit c ~earliest:0 ~finish_by:100 ~procs:2 ~dur:10);
  Alcotest.(check (option int)) "window too small" None
    (Calendar.latest_fit c ~earliest:95 ~finish_by:100 ~procs:2 ~dur:10)

let test_latest_fit_blocked () =
  let c = Calendar.create ~procs:4 in
  let c = Calendar.reserve c (Reservation.make ~start:80 ~finish:100 ~procs:3) in
  (* 2 procs impossible during [80,100) *)
  Alcotest.(check (option int)) "before the block" (Some 70)
    (Calendar.latest_fit c ~earliest:0 ~finish_by:100 ~procs:2 ~dur:10);
  Alcotest.(check (option int)) "1 proc still fits late" (Some 90)
    (Calendar.latest_fit c ~earliest:0 ~finish_by:100 ~procs:1 ~dur:10)

let test_latest_fit_none () =
  let c = Calendar.create ~procs:4 in
  let c = Calendar.reserve c (Reservation.make ~start:0 ~finish:100 ~procs:4) in
  Alcotest.(check (option int)) "fully booked" None
    (Calendar.latest_fit c ~earliest:0 ~finish_by:100 ~procs:1 ~dur:10)

(* No fit window may end past [max_int] or start after [finish_by]; the
   fit queries answer [None] where a wrapped [s + dur] or
   [finish_by - dur] would have produced a start. *)
let test_fit_int_extremes () =
  let c = Calendar.create ~procs:1 in
  let full ~start ~finish = Calendar.reserve c (Reservation.make ~start ~finish ~procs:1) in
  let some = Alcotest.(check (option int)) in
  some "latest: finish_by - dur wraps" None
    (Calendar.latest_fit c ~earliest:0 ~finish_by:(min_int + 3) ~procs:1 ~dur:5);
  some "latest: only [min_int, min_int + 2) clear below 0" None
    (Calendar.latest_fit (full ~start:(min_int + 2) ~finish:0) ~earliest:min_int ~finish_by:1
       ~procs:1 ~dur:5);
  some "earliest: window ends past max_int" None
    (Calendar.earliest_fit c ~after:(max_int - 2) ~procs:1 ~dur:5);
  let tail = full ~start:0 ~finish:(max_int - 3) in
  some "earliest: only clear run ends past max_int" None
    (Calendar.earliest_fit tail ~after:0 ~procs:1 ~dur:5)

let test_release_roundtrip () =
  let c0 = Calendar.create ~procs:8 in
  let r1 = Reservation.make ~start:10 ~finish:50 ~procs:3 in
  let r2 = Reservation.make ~start:30 ~finish:70 ~procs:2 in
  let c = Calendar.reserve (Calendar.reserve c0 r1) r2 in
  let c = Calendar.release c r1 in
  for t = 0 to 80 do
    let expected = if t >= 30 && t < 70 then 6 else 8 in
    if Calendar.available_at c t <> expected then
      Alcotest.failf "after release, avail at %d = %d, expected %d" t (Calendar.available_at c t)
        expected
  done

let test_release_not_held () =
  let c = Calendar.create ~procs:4 in
  Alcotest.check_raises "not held"
    (Invalid_argument "Calendar.release: reservation was not held on this calendar") (fun () ->
      ignore (Calendar.release c (Reservation.make ~start:0 ~finish:10 ~procs:1)))

(* Releasing [max_int] processors must not wrap the index's capacity test:
   the release is refused and the calendar keeps its profile. *)
let test_release_overflow () =
  let c = Calendar.reserve (Calendar.create ~procs:8) (Reservation.make ~start:0 ~finish:10 ~procs:3) in
  let r = Reservation.make ~start:0 ~finish:10 ~procs:max_int in
  let profile = [ (-5, 0, 8); (0, 10, 5); (10, 15, 8) ] in
  let segs = Alcotest.(list (triple int int int)) in
  Alcotest.check_raises "persistent"
    (Invalid_argument "Calendar.release: reservation was not held on this calendar") (fun () ->
      ignore (Calendar.release c r));
  Alcotest.check segs "persistent: unchanged" profile (Calendar.segments c ~from_:(-5) ~until:15)

let test_busy_rectangles_roundtrip () =
  let c = Calendar.create ~procs:8 in
  let c = Calendar.reserve c (Reservation.make ~start:5 ~finish:20 ~procs:3) in
  let c = Calendar.reserve c (Reservation.make ~start:10 ~finish:30 ~procs:2) in
  let c = Calendar.reserve c (Reservation.make ~start:25 ~finish:40 ~procs:4) in
  let rects = Calendar.busy_rectangles c ~from_:0 ~until:50 in
  let rebuilt = Calendar.of_reservations ~procs:8 rects in
  for t = 0 to 50 do
    Alcotest.(check int)
      (Printf.sprintf "availability at %d" t)
      (Calendar.available_at c t) (Calendar.available_at rebuilt t)
  done

let test_busy_series () =
  let c = Calendar.create ~procs:4 in
  let c = Calendar.reserve c (Reservation.make ~start:5 ~finish:15 ~procs:3) in
  let series = Calendar.busy_series c ~from_:0 ~until:20 ~step:5 in
  Alcotest.(check (list (float 1e-9))) "busy series" [ 0.; 3.; 3.; 0. ] series

let test_calendar_invalid_args () =
  let c = Calendar.create ~procs:4 in
  Alcotest.check_raises "create procs<=0" (Invalid_argument "Calendar.create: procs <= 0")
    (fun () -> ignore (Calendar.create ~procs:0));
  Alcotest.check_raises "min_available empty window"
    (Invalid_argument "Calendar.min_available: empty window") (fun () ->
      ignore (Calendar.min_available c ~from_:5 ~until:5));
  Alcotest.check_raises "average empty window"
    (Invalid_argument "Calendar.average_available: empty window") (fun () ->
      ignore (Calendar.average_available c ~from_:5 ~until:4));
  Alcotest.check_raises "earliest_fit dur<1" (Invalid_argument "Calendar.earliest_fit: dur < 1")
    (fun () -> ignore (Calendar.earliest_fit c ~after:0 ~procs:1 ~dur:0));
  Alcotest.check_raises "latest_fit procs<1" (Invalid_argument "Calendar.latest_fit: procs < 1")
    (fun () -> ignore (Calendar.latest_fit c ~earliest:0 ~finish_by:10 ~procs:0 ~dur:1));
  Alcotest.check_raises "busy_series step<=0" (Invalid_argument "Calendar.busy_series: step <= 0")
    (fun () -> ignore (Calendar.busy_series c ~from_:0 ~until:10 ~step:0));
  Alcotest.check_raises "busy_rectangles empty"
    (Invalid_argument "Calendar.busy_rectangles: empty window") (fun () ->
      ignore (Calendar.busy_rectangles c ~from_:3 ~until:3))

let test_grid_basics () =
  let g =
    Grid.make
      [
        ({ Grid.name = "a"; procs = 8; speed = 2.0 }, []);
        ({ Grid.name = "b"; procs = 16; speed = 0.5 }, []);
      ]
  in
  Alcotest.(check int) "sites" 2 (Grid.n_sites g);
  Alcotest.(check int) "total" 24 (Grid.total_procs g);
  (* reference = 8*2 + 16*0.5 = 24 *)
  Alcotest.(check int) "reference" 24 (Grid.reference_procs g);
  Alcotest.(check int) "scale up on fast site" 50 (Grid.scale_duration g ~site:0 100.);
  Alcotest.(check int) "scale down on slow site" 200 (Grid.scale_duration g ~site:1 100.);
  Alcotest.(check int) "min 1s" 1 (Grid.scale_duration g ~site:0 0.4)

let test_grid_invalid () =
  Alcotest.check_raises "no sites" (Invalid_argument "Grid.make: no sites") (fun () ->
      ignore (Grid.make []));
  Alcotest.check_raises "bad speed" (Invalid_argument "Grid.make: speed <= 0") (fun () ->
      ignore (Grid.make [ ({ Grid.name = "x"; procs = 4; speed = 0. }, []) ]))

let test_grid_reserve_persistent () =
  let g = Grid.make [ ({ Grid.name = "a"; procs = 8; speed = 1.0 }, []) ] in
  let g' = Grid.reserve g ~site:0 (Reservation.make ~start:0 ~finish:10 ~procs:8) in
  Alcotest.(check int) "original free" 8 (Calendar.available_at (Grid.calendar g 0) 5);
  Alcotest.(check int) "updated busy" 0 (Calendar.available_at (Grid.calendar g' 0) 5)

(* ------------------------------------------------------------------ *)
(* Brute-force reference model and properties *)

module Ref_model = struct
  let avail ~procs rs t =
    procs
    - List.fold_left
        (fun acc (r : Reservation.t) -> if r.start <= t && t < r.finish then acc + r.procs else acc)
        0 rs

  let fits ~procs rs ~np ~dur s =
    let ok = ref true in
    for t = s to s + dur - 1 do
      if avail ~procs rs t < np then ok := false
    done;
    !ok

  let earliest_fit ~procs rs ~after ~np ~dur =
    if np > procs then None
    else begin
      let horizon = List.fold_left (fun acc (r : Reservation.t) -> max acc r.finish) after rs in
      let rec go s = if fits ~procs rs ~np ~dur s then Some s else if s > horizon then None else go (s + 1) in
      go after
    end

  let latest_fit ~procs rs ~earliest ~finish_by ~np ~dur =
    if np > procs then None
    else begin
      let rec go s = if s < earliest then None else if fits ~procs rs ~np ~dur s then Some s else go (s - 1) in
      go (finish_by - dur)
    end
end

(* Generate a feasible reservation list on a small cluster with small
   times, so that brute force stays cheap. *)
let gen_reservations procs =
  QCheck.Gen.(
    list_size (0 -- 12)
      (triple (0 -- 40) (1 -- 12) (1 -- procs))
    >|= fun triples ->
    let rs = List.map (fun (s, d, np) -> Reservation.make ~start:s ~finish:(s + d) ~procs:np) triples in
    (* keep a feasible prefix-greedy subset *)
    let _, kept =
      List.fold_left
        (fun (cal, kept) r ->
          match Calendar.reserve_opt cal r with
          | Some cal -> (cal, r :: kept)
          | None -> (cal, kept))
        (Calendar.create ~procs, [])
        rs
    in
    List.rev kept)

let arb_scenario =
  let procs = 5 in
  QCheck.make
    ~print:(fun (rs, (after, np, dur)) ->
      Format.asprintf "rs=[%a] after=%d np=%d dur=%d"
        (Format.pp_print_list Reservation.pp)
        rs after np dur)
    QCheck.Gen.(
      pair (gen_reservations procs) (triple (0 -- 50) (1 -- procs) (1 -- 10)))

(* Queries go straight to the Mp_index tree; repeating them checks that
   reads never mutate the snapshot (the lazy add tags are pushed only on
   path-copied nodes, so a query must be repeatable). *)
let stable_query cal q =
  let first = q cal in
  let rec warm k last = if k = 0 then last else warm (k - 1) (q cal) in
  let last = warm 6 first in
  if first = last then first else failwith "repeated query changed its answer"

let prop_earliest_fit_matches_reference =
  QCheck.Test.make ~name:"earliest_fit matches brute force" ~count:500 arb_scenario
    (fun (rs, (after, np, dur)) ->
      let procs = 5 in
      let cal = Calendar.of_reservations ~procs rs in
      let got = stable_query cal (fun cal -> Calendar.earliest_fit cal ~after ~procs:np ~dur) in
      let want = Ref_model.earliest_fit ~procs rs ~after ~np ~dur in
      got = want)

let prop_latest_fit_matches_reference =
  QCheck.Test.make ~name:"latest_fit matches brute force" ~count:500 arb_scenario
    (fun (rs, (after, np, dur)) ->
      let procs = 5 in
      let finish_by = after + 30 in
      let earliest = max 0 (after - 20) in
      let cal = Calendar.of_reservations ~procs rs in
      let got =
        stable_query cal (fun cal -> Calendar.latest_fit cal ~earliest ~finish_by ~procs:np ~dur)
      in
      let want = Ref_model.latest_fit ~procs rs ~earliest ~finish_by ~np ~dur in
      got = want)

let prop_available_matches_reference =
  QCheck.Test.make ~name:"available_at matches brute force" ~count:500
    (QCheck.make QCheck.Gen.(pair (gen_reservations 5) (0 -- 60)))
    (fun (rs, t) ->
      let cal = Calendar.of_reservations ~procs:5 rs in
      Calendar.available_at cal t = Ref_model.avail ~procs:5 rs t)

let prop_fit_result_actually_fits =
  QCheck.Test.make ~name:"earliest_fit result is reservable" ~count:500 arb_scenario
    (fun (rs, (after, np, dur)) ->
      let cal = Calendar.of_reservations ~procs:5 rs in
      match Calendar.earliest_fit cal ~after ~procs:np ~dur with
      | None -> true
      | Some s ->
          s >= after
          && Calendar.can_reserve cal (Reservation.make ~start:s ~finish:(s + dur) ~procs:np))

let prop_latest_fit_result_within_bounds =
  QCheck.Test.make ~name:"latest_fit result within bounds and reservable" ~count:500 arb_scenario
    (fun (rs, (after, np, dur)) ->
      let finish_by = after + 30 in
      let cal = Calendar.of_reservations ~procs:5 rs in
      match Calendar.latest_fit cal ~earliest:0 ~finish_by ~procs:np ~dur with
      | None -> true
      | Some s ->
          s >= 0
          && s + dur <= finish_by
          && Calendar.can_reserve cal (Reservation.make ~start:s ~finish:(s + dur) ~procs:np))

let prop_reserve_decreases_availability =
  QCheck.Test.make ~name:"reserve subtracts exactly procs inside the interval" ~count:300
    (QCheck.make QCheck.Gen.(pair (gen_reservations 5) (triple (0 -- 40) (1 -- 8) (1 -- 5))))
    (fun (rs, (s, d, np)) ->
      let cal = Calendar.of_reservations ~procs:5 rs in
      let r = Reservation.make ~start:s ~finish:(s + d) ~procs:np in
      match Calendar.reserve_opt cal r with
      | None -> true
      | Some cal' ->
          let ok = ref true in
          for t = s - 2 to s + d + 2 do
            let before = Calendar.available_at cal t and after = Calendar.available_at cal' t in
            let expected = if t >= s && t < s + d then before - np else before in
            if after <> expected then ok := false
          done;
          !ok)

let prop_busy_rectangles_reproduce_profile =
  QCheck.Test.make ~name:"busy_rectangles reproduce the availability profile" ~count:300
    (QCheck.make (gen_reservations 5))
    (fun rs ->
      let cal = Calendar.of_reservations ~procs:5 rs in
      let rects = Calendar.busy_rectangles cal ~from_:(-5) ~until:70 in
      let rebuilt = Calendar.of_reservations ~procs:5 rects in
      let ok = ref true in
      for t = -5 to 69 do
        if Calendar.available_at cal t <> Calendar.available_at rebuilt t then ok := false
      done;
      !ok)

let prop_release_inverts_reserve =
  QCheck.Test.make ~name:"release inverts reserve" ~count:300
    (QCheck.make QCheck.Gen.(pair (gen_reservations 5) (triple (0 -- 40) (1 -- 8) (1 -- 5))))
    (fun (rs, (s, d, np)) ->
      let cal = Calendar.of_reservations ~procs:5 rs in
      let r = Reservation.make ~start:s ~finish:(s + d) ~procs:np in
      match Calendar.reserve_opt cal r with
      | None -> true
      | Some cal' ->
          let back = Calendar.release cal' r in
          let ok = ref true in
          for t = -2 to 60 do
            if Calendar.available_at back t <> Calendar.available_at cal t then ok := false
          done;
          !ok)

(* Reserve path-copies O(log R) tree nodes off the parent snapshot; the
   child must answer exactly like a cold calendar built from the same
   reservations (the shared subtrees carry no stale summaries). *)
let prop_incremental_reserve_matches_cold_calendar =
  QCheck.Test.make ~name:"incremental reserve equals the cold-built calendar" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (gen_reservations 5) (triple (0 -- 40) (1 -- 8) (1 -- 5))))
    (fun (rs, (s, d, np)) ->
      let cal = Calendar.of_reservations ~procs:5 rs in
      (* Query first so reserve happens on an already-queried snapshot. *)
      let (_ : int) = stable_query cal (fun cal -> Calendar.available_at cal 0) in
      let r = Reservation.make ~start:s ~finish:(s + d) ~procs:np in
      match Calendar.reserve_opt cal r with
      | None -> true
      | Some patched ->
          let cold = Calendar.of_reservations ~procs:5 (rs @ [ r ]) in
          let ok = ref true in
          for t = -2 to 60 do
            if Calendar.available_at patched t <> Calendar.available_at cold t then ok := false
          done;
          for after = 0 to 20 do
            let q cal = Calendar.earliest_fit cal ~after ~procs:np ~dur:(max 1 d) in
            if stable_query patched q <> q cold then ok := false;
            let q cal =
              Calendar.latest_fit cal ~earliest:0 ~finish_by:(after + 25) ~procs:np
                ~dur:(max 1 d)
            in
            if stable_query patched q <> q cold then ok := false
          done;
          !ok)

(* Cross-layer: the calendar is a thin veneer over Mp_index — both
   layers must expose the same step function, the same breakpoint set
   and the same fit answers for the same reservations. *)
let prop_calendar_matches_raw_index =
  QCheck.Test.make ~name:"calendar agrees with a raw Mp_index" ~count:300 arb_scenario
    (fun (rs, (after, np, dur)) ->
      let cal = Calendar.of_reservations ~procs:5 rs in
      let idx =
        List.fold_left
          (fun idx (r : Reservation.t) ->
            match Mp_index.reserve idx ~start:r.start ~finish:r.finish ~procs:r.procs with
            | Some idx -> idx
            | None -> QCheck.Test.fail_report "soup reservation rejected by raw index")
          (Mp_index.create ~procs:5) rs
      in
      let ok = ref true in
      for t = -2 to 60 do
        if Calendar.available_at cal t <> Mp_index.available_at idx t then ok := false
      done;
      !ok
      && Calendar.breakpoints cal = Mp_index.breakpoints idx
      && Calendar.earliest_fit cal ~after ~procs:np ~dur
         = Mp_index.earliest_fit idx ~after ~procs:np ~dur
      && Calendar.earliest_fit ~limit:(after + 10) cal ~after ~procs:np ~dur
         = Mp_index.earliest_fit ~limit:(after + 10) idx ~after ~procs:np ~dur
      && Calendar.latest_fit cal ~earliest:0 ~finish_by:(after + 30) ~procs:np ~dur
         = Mp_index.latest_fit idx ~earliest:0 ~finish_by:(after + 30) ~procs:np ~dur)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_busy_rectangles_reproduce_profile;
        prop_release_inverts_reserve;
        prop_earliest_fit_matches_reference;
        prop_latest_fit_matches_reference;
        prop_available_matches_reference;
        prop_fit_result_actually_fits;
        prop_latest_fit_result_within_bounds;
        prop_reserve_decreases_availability;
        prop_incremental_reserve_matches_cold_calendar;
        prop_calendar_matches_raw_index;
      ]
  in
  Alcotest.run "platform"
    [
      ( "reservation",
        [
          Alcotest.test_case "basics" `Quick test_reservation_basics;
          Alcotest.test_case "invalid args" `Quick test_reservation_invalid;
          Alcotest.test_case "overlaps" `Quick test_reservation_overlaps;
          Alcotest.test_case "clip" `Quick test_reservation_clip;
          Alcotest.test_case "shift" `Quick test_reservation_shift;
        ] );
      ( "calendar",
        [
          Alcotest.test_case "empty" `Quick test_calendar_empty;
          Alcotest.test_case "reserve" `Quick test_calendar_reserve;
          Alcotest.test_case "overcommit" `Quick test_calendar_overcommit;
          Alcotest.test_case "exact fill" `Quick test_calendar_exact_fill;
          Alcotest.test_case "persistence" `Quick test_calendar_persistence;
          Alcotest.test_case "min and average" `Quick test_calendar_min_avg;
          Alcotest.test_case "segments" `Quick test_calendar_segments;
          Alcotest.test_case "earliest_fit simple" `Quick test_earliest_fit_simple;
          Alcotest.test_case "earliest_fit small hole" `Quick test_earliest_fit_hole_too_small;
          Alcotest.test_case "earliest_fit after" `Quick test_earliest_fit_after;
          Alcotest.test_case "latest_fit simple" `Quick test_latest_fit_simple;
          Alcotest.test_case "latest_fit blocked" `Quick test_latest_fit_blocked;
          Alcotest.test_case "latest_fit none" `Quick test_latest_fit_none;
          Alcotest.test_case "fit windows at the ends of int" `Quick test_fit_int_extremes;
          Alcotest.test_case "busy series" `Quick test_busy_series;
          Alcotest.test_case "release roundtrip" `Quick test_release_roundtrip;
          Alcotest.test_case "release not held" `Quick test_release_not_held;
          Alcotest.test_case "release overflow refused" `Quick test_release_overflow;
          Alcotest.test_case "busy rectangles roundtrip" `Quick test_busy_rectangles_roundtrip;
        ] );
      ( "invalid-args",
        [ Alcotest.test_case "calendar" `Quick test_calendar_invalid_args ] );
      ( "grid",
        [
          Alcotest.test_case "basics" `Quick test_grid_basics;
          Alcotest.test_case "invalid" `Quick test_grid_invalid;
          Alcotest.test_case "reserve persistent" `Quick test_grid_reserve_persistent;
        ] );
      ("properties", props);
    ]

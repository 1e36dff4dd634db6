(* Mp_index against a brute-force reference model: the index and the
   reference must agree on every query over random reservation soups,
   and the structural invariants must survive random reserve/release
   sequences.  The large-R smoke at the end exercises the
   same tree at 10^5 reservations and sanity-checks the O(log R) visit
   bound through the Mp_obs counters. *)

module Index = Mp_index

(* ------------------------------------------------------------------ *)
(* Brute-force reference over a reservation triple list *)

module Ref_model = struct
  let avail ~cap rs t =
    cap
    - List.fold_left
        (fun acc (s, d, np) -> if s <= t && t < s + d then acc + np else acc)
        0 rs

  let min_in ~cap rs ~from_ ~until =
    let m = ref max_int in
    for t = from_ to until - 1 do
      m := min !m (avail ~cap rs t)
    done;
    !m

  let max_in ~cap rs ~from_ ~until =
    let m = ref min_int in
    for t = from_ to until - 1 do
      m := max !m (avail ~cap rs t)
    done;
    !m

  let fits ~cap rs ~np ~dur s =
    let ok = ref true in
    for t = s to s + dur - 1 do
      if avail ~cap rs t < np then ok := false
    done;
    !ok

  let earliest_fit ~cap rs ~after ~np ~dur =
    if np > cap then None
    else begin
      let horizon = List.fold_left (fun acc (s, d, _) -> max acc (s + d)) after rs in
      let rec go s =
        if fits ~cap rs ~np ~dur s then Some s else if s > horizon then None else go (s + 1)
      in
      go after
    end

  let latest_fit ~cap rs ~earliest ~finish_by ~np ~dur =
    if np > cap then None
    else begin
      let rec go s =
        if s < earliest then None else if fits ~cap rs ~np ~dur s then Some s else go (s - 1)
      in
      go (finish_by - dur)
    end
end

(* ------------------------------------------------------------------ *)
(* Generators: feasible soups on a small capacity with small times *)

let cap = 5

(* The triples that still fit when reserved in order. *)
let feasible triples =
  let _, kept =
    List.fold_left
      (fun (idx, kept) (s, d, np) ->
        match Index.reserve idx ~start:s ~finish:(s + d) ~procs:np with
        | Some idx -> (idx, (s, d, np) :: kept)
        | None -> (idx, kept))
      (Index.create ~procs:cap, [])
      triples
  in
  List.rev kept

let gen_soup = QCheck.Gen.(list_size (0 -- 12) (triple (0 -- 40) (1 -- 12) (1 -- cap)) >|= feasible)

(* Dense soups: up to 60 reservations over [0, 150), so a fit query
   crosses many blocked runs before it finds its window. *)
let gen_dense_soup =
  QCheck.Gen.(list_size (0 -- 60) (triple (0 -- 139) (1 -- 10) (1 -- cap)) >|= feasible)

let index_of_soup rs =
  List.fold_left
    (fun idx (s, d, np) ->
      match Index.reserve idx ~start:s ~finish:(s + d) ~procs:np with
      | Some idx -> idx
      | None -> Alcotest.fail "soup reservation no longer fits")
    (Index.create ~procs:cap) rs

let print_soup rs =
  String.concat "; " (List.map (fun (s, d, np) -> Printf.sprintf "[%d,+%d)x%d" s d np) rs)

let print_scenario (rs, (after, np, dur)) =
  Printf.sprintf "rs=[%s] after=%d np=%d dur=%d" (print_soup rs) after np dur

let gen_scenario = QCheck.Gen.(pair gen_soup (triple (0 -- 50) (1 -- cap) (1 -- 10)))

(* Fit scenarios mix the sparse soups with dense ones, each with query
   windows that sweep its span. *)
let arb_fit_scenario =
  QCheck.make ~print:print_scenario
    QCheck.Gen.(
      oneof [ gen_scenario; pair gen_dense_soup (triple (0 -- 160) (1 -- cap) (1 -- 20)) ])

(* Every stored breakpoint, in key order. *)
let breakpoint_list idx =
  let l = ref [] in
  Index.iter_breakpoints idx (fun k v -> l := (k, v) :: !l);
  List.rev !l

let bp_list = Alcotest.(list (pair int int))

(* ------------------------------------------------------------------ *)
(* Persistent form vs reference *)

let prop_point_and_window_queries =
  QCheck.Test.make ~name:"available_at/min_in/max_in match brute force" ~count:400
    (QCheck.make
       ~print:(fun (rs, (from_, w)) -> Printf.sprintf "rs=[%s] from=%d w=%d" (print_soup rs) from_ w)
       QCheck.Gen.(pair gen_soup (pair (-5 -- 55) (1 -- 15))))
    (fun (rs, (from_, w)) ->
      let idx = index_of_soup rs in
      Index.self_check idx;
      let until = from_ + w in
      Index.available_at idx from_ = Ref_model.avail ~cap rs from_
      && Index.min_in idx ~from_ ~until = Ref_model.min_in ~cap rs ~from_ ~until
      && Index.max_in idx ~from_ ~until = Ref_model.max_in ~cap rs ~from_ ~until)

let prop_earliest_fit_matches_reference =
  QCheck.Test.make ~name:"earliest_fit matches brute force" ~count:600 arb_fit_scenario
    (fun (rs, (after, np, dur)) ->
      let idx = index_of_soup rs in
      Index.earliest_fit idx ~after ~procs:np ~dur
      = Ref_model.earliest_fit ~cap rs ~after ~np ~dur)

let prop_bounded_fit_filters =
  QCheck.Test.make ~name:"earliest_fit ~limit only filters the unbounded answer" ~count:600
    arb_fit_scenario (fun (rs, (after, np, dur)) ->
      let idx = index_of_soup rs in
      let unbounded = Index.earliest_fit idx ~after ~procs:np ~dur in
      let ok = ref true in
      (* Sweep limits across the interesting range, including one below
         [after], the answer and the second before it, and one far past
         the answer: the bounded query must be exactly the unbounded
         answer filtered by [s <= limit], never an alternative
         later-but-within-limit start. *)
      let around = match unbounded with Some s -> [ s - 1; s ] | None -> [] in
      List.iter
        (fun limit ->
          let want = match unbounded with Some s when s <= limit -> Some s | _ -> None in
          if Index.earliest_fit ~limit idx ~after ~procs:np ~dur <> want then ok := false)
        ([ after - 1; after; after + 5; after + 20; after + 200 ] @ around);
      !ok)

(* Several windows per scenario: one around [after], one whose
   [earliest] is below 0, one whose [finish_by] is past every soup, and
   one exactly [dur] wide. *)
let prop_latest_fit_matches_reference =
  QCheck.Test.make ~name:"latest_fit matches brute force" ~count:400 arb_fit_scenario
    (fun (rs, (after, np, dur)) ->
      let idx = index_of_soup rs in
      List.for_all
        (fun (earliest, finish_by) ->
          Index.latest_fit idx ~earliest ~finish_by ~procs:np ~dur
          = Ref_model.latest_fit ~cap rs ~earliest ~finish_by ~np ~dur)
        [
          (max 0 (after - 20), after + 30);
          (-7 - (after mod 5), after + dur);
          (after / 2, 185);
          (after, after + dur);
        ])

let prop_release_inverts_reserve =
  QCheck.Test.make ~name:"release inverts reserve (persistent)" ~count:300
    (QCheck.make
       ~print:(fun (rs, (s, d, np)) -> Printf.sprintf "rs=[%s] r=[%d,+%d)x%d" (print_soup rs) s d np)
       QCheck.Gen.(pair gen_soup (triple (0 -- 40) (1 -- 8) (1 -- cap))))
    (fun (rs, (s, d, np)) ->
      let idx = index_of_soup rs in
      match Index.reserve idx ~start:s ~finish:(s + d) ~procs:np with
      | None -> true
      | Some idx' -> (
          Index.self_check idx';
          match Index.release idx' ~start:s ~finish:(s + d) ~procs:np with
          | None -> false
          | Some back ->
              Index.self_check back;
              let ok = ref true in
              for t = -2 to 60 do
                if Index.available_at back t <> Index.available_at idx t then ok := false
              done;
              (* the original snapshot is untouched by either update *)
              for t = -2 to 60 do
                if Index.available_at idx t <> Ref_model.avail ~cap rs t then ok := false
              done;
              !ok))

let prop_release_overfull_refused =
  QCheck.Test.make ~name:"release beyond capacity returns None" ~count:200
    (QCheck.make ~print:print_soup gen_soup) (fun rs ->
      let idx = index_of_soup rs in
      (* the window [100, 110) is free in every generated soup, so any
         release there would lift availability above capacity *)
      Index.release idx ~start:100 ~finish:110 ~procs:1 = None)

let prop_fold_segments_reproduce_profile =
  QCheck.Test.make ~name:"fold_segments tile the window with the right values" ~count:300
    (QCheck.make ~print:print_soup gen_soup) (fun rs ->
      let idx = index_of_soup rs in
      let from_ = -3 and until = 58 in
      let segs =
        List.rev
          (Index.fold_segments idx ~from_ ~until ~init:[] ~f:(fun acc ~start ~finish ~avail ->
               (start, finish, avail) :: acc))
      in
      (* contiguous tiling of [from_, until) ... *)
      let tiles = ref true and cursor = ref from_ in
      List.iter
        (fun (s, f, _) ->
          if s <> !cursor || f <= s then tiles := false;
          cursor := f)
        segs;
      (* ... carrying the pointwise availability *)
      let values = ref true in
      List.iter
        (fun (s, f, v) ->
          for t = s to f - 1 do
            if Ref_model.avail ~cap rs t <> v then values := false
          done)
        segs;
      !tiles && !cursor = until && !values)

(* ------------------------------------------------------------------ *)
(* Persistence and update structure *)

(* Every tightest-search probe starts from one shared base calendar, so a
   reserve must leave the snapshot it was given exactly as it was. *)
let prop_reserve_keeps_input =
  QCheck.Test.make ~name:"a reserve leaves its input snapshot unchanged" ~count:200
    (QCheck.make ~print:print_soup gen_soup) (fun rs ->
      let snap = index_of_soup rs in
      let before = breakpoint_list snap in
      (* far-future window: always free in the generated soups *)
      match Index.reserve snap ~start:100 ~finish:110 ~procs:cap with
      | None -> false
      | Some next ->
          Index.self_check snap;
          breakpoint_list snap = before
          && Index.breakpoints snap = List.length before
          && Index.available_at snap 105 = cap
          && Index.available_at next 105 = 0)

(* Updates never remove a key, so after any reserve/release soup the key
   set is the sentinel plus the ends of every window applied, which is
   what the breakpoint count reports.  A negative start stands for
   [min_int] and a zero duration for a window ending at [max_int];
   [sel] picks a fresh reserve, a fresh release, or a release of an
   earlier granted reserve. *)
let prop_update_keys =
  QCheck.Test.make ~name:"updates keep the structure and key every applied end" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map (fun (sel, (s, d, np)) -> Printf.sprintf "%d:[%d,+%d)x%d" sel s d np) ops))
       QCheck.Gen.(list_size (1 -- 40) (pair (0 -- 9) (triple (-2 -- 40) (0 -- 12) (1 -- cap)))))
    (fun ops ->
      let idx = ref (Index.create ~procs:cap) in
      let keys = ref [ min_int ] and granted = ref [] in
      List.for_all
        (fun (sel, (s, d, np)) ->
          let start = if s < 0 then min_int else s in
          let finish = if d = 0 then max_int else start + d in
          let rel, (start, finish, np) =
            match !granted with
            | _ :: _ as g when sel >= 8 -> (true, List.nth g (sel mod List.length g))
            | _ -> (sel >= 6, (start, finish, np))
          in
          let applied =
            if rel then Index.release !idx ~start ~finish ~procs:np
            else Index.reserve !idx ~start ~finish ~procs:np
          in
          (match applied with
          | Some i ->
              idx := i;
              keys := start :: finish :: !keys;
              if not rel then granted := (start, finish, np) :: !granted
          | None -> ());
          let want = List.sort_uniq compare !keys in
          Index.self_check !idx;
          List.map fst (breakpoint_list !idx) = want
          && Index.breakpoints !idx = List.length want)
        ops)

(* ------------------------------------------------------------------ *)
(* Unit: argument validation and small cases *)

let test_create_invalid () =
  Alcotest.check_raises "procs<=0" (Invalid_argument "Mp_index.create: procs <= 0") (fun () ->
      ignore (Index.create ~procs:0))

let test_empty_index () =
  let idx = Index.create ~procs:7 in
  Index.self_check idx;
  Alcotest.(check int) "capacity" 7 (Index.capacity idx);
  Alcotest.(check int) "one sentinel breakpoint" 1 (Index.breakpoints idx);
  Alcotest.(check int) "free in the past" 7 (Index.available_at idx (-1000));
  Alcotest.(check int) "free in the future" 7 (Index.available_at idx 1_000_000);
  Alcotest.(check (option int)) "fit now" (Some 3)
    (Index.earliest_fit idx ~after:3 ~procs:7 ~dur:5)

let test_breakpoint_count () =
  let idx = Index.create ~procs:4 in
  let idx = Option.get (Index.reserve idx ~start:10 ~finish:20 ~procs:2) in
  Alcotest.(check int) "sentinel + 2 cuts" 3 (Index.breakpoints idx);
  (* an aligned second reservation adds no breakpoints *)
  let idx = Option.get (Index.reserve idx ~start:10 ~finish:20 ~procs:1) in
  Alcotest.(check int) "still 3" 3 (Index.breakpoints idx);
  Index.self_check idx

(* Fit windows past the ends of [int]: no window whose end is not
   representable, and no start after [finish_by] from a wrapped
   [finish_by - dur]. *)
let test_fit_int_extremes () =
  let idx = Index.create ~procs:1 in
  let full ~start ~finish = Option.get (Index.reserve idx ~start ~finish ~procs:1) in
  let some = Alcotest.(check (option int)) in
  some "latest: finish_by - dur wraps" None
    (Index.latest_fit idx ~earliest:0 ~finish_by:(min_int + 3) ~procs:1 ~dur:5);
  some "latest: window starts at min_int" (Some min_int)
    (Index.latest_fit idx ~earliest:min_int ~finish_by:(min_int + 5) ~procs:1 ~dur:5);
  some "latest: only [min_int, min_int + 2) clear below 0" None
    (Index.latest_fit (full ~start:(min_int + 2) ~finish:0) ~earliest:min_int ~finish_by:1
       ~procs:1 ~dur:5);
  some "earliest: window ends past max_int" None
    (Index.earliest_fit idx ~after:(max_int - 2) ~procs:1 ~dur:5);
  some "earliest: window ends at max_int" (Some (max_int - 5))
    (Index.earliest_fit idx ~after:(max_int - 5) ~procs:1 ~dur:5);
  some "earliest: only clear run ends past max_int" None
    (Index.earliest_fit (full ~start:0 ~finish:(max_int - 3)) ~after:0 ~procs:1 ~dur:5)

(* The sentinel segment itself can be reserved: a window must then start
   at or after the reservation's end. *)
let test_blocked_sentinel () =
  let idx = Option.get (Index.reserve (Index.create ~procs:2) ~start:min_int ~finish:100 ~procs:2) in
  Index.self_check idx;
  Alcotest.(check int) "no new breakpoint at min_int" 2 (Index.breakpoints idx);
  let some = Alcotest.(check (option int)) in
  some "nothing ends below 100" None
    (Index.latest_fit idx ~earliest:min_int ~finish_by:99 ~procs:1 ~dur:1);
  some "nothing fits across 100" None
    (Index.latest_fit idx ~earliest:min_int ~finish_by:104 ~procs:1 ~dur:5);
  some "first fit right after" (Some 100)
    (Index.latest_fit idx ~earliest:min_int ~finish_by:105 ~procs:2 ~dur:5);
  some "earliest fit at the end" (Some 100) (Index.earliest_fit idx ~after:min_int ~procs:1 ~dur:3)

(* ------------------------------------------------------------------ *)
(* One-descent update: the exact breakpoints for each way a window's ends
   meet the existing keys *)

(* Capacity 8 holding [10, 20) x 3: keys min_int, 10 and 20. *)
let update_base () =
  Option.get (Index.reserve (Index.create ~procs:8) ~start:10 ~finish:20 ~procs:3)

let base_avail k = if 10 <= k && k < 20 then 5 else 8

(* Each window reserved x 2 on [update_base]. *)
let update_cases =
  [
    ("strictly inside one segment", 12, 15, [ (min_int, 8); (10, 5); (12, 3); (15, 5); (20, 8) ]);
    ("inside the open tail", 30, 40, [ (min_int, 8); (10, 5); (20, 8); (30, 6); (40, 8) ]);
    ("start existing, finish new", 10, 15, [ (min_int, 8); (10, 3); (15, 5); (20, 8) ]);
    ("start new, finish existing", 15, 20, [ (min_int, 8); (10, 5); (15, 3); (20, 8) ]);
    ("both ends existing", 10, 20, [ (min_int, 8); (10, 3); (20, 8) ]);
    ("across existing keys", 5, 25, [ (min_int, 8); (5, 6); (10, 3); (20, 6); (25, 8) ]);
    ("start = min_int", min_int, 15, [ (min_int, 6); (10, 3); (15, 5); (20, 8) ]);
    ("finish = max_int", 15, max_int, [ (min_int, 8); (10, 5); (15, 3); (20, 6); (max_int, 8) ]);
  ]

(* Releasing the window again restores the values; the keys stay. *)
let test_update_cases () =
  List.iter
    (fun (name, start, finish, want) ->
      let check form idx want =
        Index.self_check idx;
        Alcotest.check bp_list (name ^ ", " ^ form) want (breakpoint_list idx);
        Alcotest.(check int) (name ^ ", " ^ form ^ ": count") (List.length want)
          (Index.breakpoints idx)
      in
      let released = List.map (fun (k, _) -> (k, base_avail k)) want in
      let idx = Option.get (Index.reserve (update_base ()) ~start ~finish ~procs:2) in
      check "reserve" idx want;
      check "release" (Option.get (Index.release idx ~start ~finish ~procs:2)) released)
    update_cases

(* Both ends of every window fall in one gap, so each update inserts its
   second end with a separate descent; ascending windows grow the right
   spine, descending ones the left, and each forces rotations. *)
let test_same_gap_rotations () =
  let n = 10_000 in
  let idx = ref (Index.create ~procs:2) in
  let step i ~start =
    idx := Option.get (Index.reserve !idx ~start ~finish:(start + 2) ~procs:1);
    if i mod 100 = 0 then Index.self_check !idx
  in
  for i = 0 to n - 1 do
    step i ~start:(3 * i)
  done;
  for i = 0 to n - 1 do
    step i ~start:(-3 * (i + 1))
  done;
  Index.self_check !idx;
  Alcotest.(check int) "two keys per window" (1 + (4 * n)) (Index.breakpoints !idx);
  List.iter
    (fun (t, want) -> Alcotest.(check int) (Printf.sprintf "available at %d" t) want
        (Index.available_at !idx t))
    [ (min_int, 2); (-30_000, 1); (-29_999, 1); (-29_998, 2); (-1, 2); (0, 1); (2, 2); (29_998, 1); (29_999, 2) ]

(* Releasing [max_int] processors must not wrap the capacity test. *)
let test_release_overflow () =
  let idx = Option.get (Index.reserve (Index.create ~procs:8) ~start:0 ~finish:10 ~procs:3) in
  let before = breakpoint_list idx in
  List.iter
    (fun procs ->
      let what = Printf.sprintf "release x %d" procs in
      Alcotest.(check bool) (what ^ ": refused") true
        (Index.release idx ~start:0 ~finish:10 ~procs = None);
      Alcotest.check bp_list (what ^ ": snapshot unchanged") before (breakpoint_list idx))
    [ max_int; max_int - 4 ]

(* ------------------------------------------------------------------ *)
(* Visit pin: each fit direction crosses blocked runs in one walk *)

let visits () =
  Option.value ~default:0
    (List.assoc_opt "index.node_visits" (Mp_obs.Snapshot.take ()).Mp_obs.Snapshot.counters)

(* A comb of 1 000 blocked runs: [10i, 10i+5) is full, and each clear gap
   is one second too short for the query, so the only fits are the tail
   after the last tooth and the time before the first.  A walk that
   restarts from the root for every blocked run costs O(K log R) visits;
   one in-order walk, forward or backward, costs about one visit per
   breakpoint. *)
let test_comb_one_walk () =
  Mp_obs.with_enabled (fun () ->
      let teeth = 1_000 in
      let idx = ref (Index.create ~procs:4) in
      for i = 0 to teeth - 1 do
        idx := Option.get (Index.reserve !idx ~start:(10 * i) ~finish:((10 * i) + 5) ~procs:4)
      done;
      let bps = Index.breakpoints !idx in
      Alcotest.(check int) "sentinel + 2 cuts per tooth" ((2 * teeth) + 1) bps;
      let bound = float_of_int bps +. (8. *. (log (float_of_int bps) /. log 2.)) in
      let pin form want fit =
        let v0 = visits () in
        Alcotest.(check (option int)) form want (fit ());
        let v = visits () - v0 in
        if float_of_int v > bound then
          Alcotest.failf "%s: %d visits exceed %.0f at %d breakpoints" form v bound bps
      in
      let after_comb = Some 9995 and before_comb = Some (-6) in
      pin "persistent earliest" after_comb (fun () ->
          Index.earliest_fit !idx ~after:0 ~procs:1 ~dur:6);
      pin "persistent latest" before_comb (fun () ->
          Index.latest_fit !idx ~earliest:(-100) ~finish_by:10_000 ~procs:1 ~dur:6))

(* ------------------------------------------------------------------ *)
(* Large-R smoke: 10^5 reservations, O(log R) visit bound *)

let test_large_r_smoke () =
  Mp_obs.with_enabled (fun () ->
      let q = 64 and r_target = 100_000 in
      let rng = Mp_prelude.Rng.create 7 in
      let horizon = 215 * r_target in
      let idx = ref (Index.create ~procs:q) in
      let kept = ref 0 and attempts = ref 0 in
      let v_build = visits () in
      while !kept < r_target && !attempts < 3 * r_target do
        incr attempts;
        let start = Mp_prelude.Rng.int rng horizon in
        let dur = 60 + Mp_prelude.Rng.int rng 3541 in
        let procs = 1 + Mp_prelude.Rng.int rng 8 in
        match Index.reserve !idx ~start ~finish:(start + dur) ~procs with
        | Some i ->
            idx := i;
            incr kept
        | None -> ()
      done;
      if !kept < r_target then Alcotest.failf "built only %d of %d reservations" !kept r_target;
      let vpr = float_of_int (visits () - v_build) /. float_of_int !attempts in
      let idx = !idx in
      Index.self_check idx;
      let bps = Index.breakpoints idx in
      if bps < r_target then Alcotest.failf "only %d breakpoints for %d reservations" bps !kept;
      (* One capacity descent plus one update descent: about two root-to-
         leaf paths each. *)
      let reserve_bound = (3. *. (log (float_of_int bps) /. log 2.)) +. 16. in
      if vpr > reserve_bound then
        Alcotest.failf "visits/reserve %.1f exceeds %.1f at %d breakpoints" vpr reserve_bound bps;
      let n_queries = 500 in
      let v0 = visits () in
      for _ = 1 to n_queries do
        let procs = 1 + Mp_prelude.Rng.int rng 16 in
        let dur = 60 + Mp_prelude.Rng.int rng 3541 in
        let after = Mp_prelude.Rng.int rng horizon in
        ignore (Index.earliest_fit idx ~after ~procs ~dur);
        let finish_by = 1 + Mp_prelude.Rng.int rng horizon in
        ignore (Index.latest_fit idx ~earliest:0 ~finish_by ~procs ~dur)
      done;
      let vpq = float_of_int (visits () - v0) /. float_of_int (2 * n_queries) in
      (* Same bound the "Calendar index" bench section asserts: a linear
         walk would be ~1000x over it at this R. *)
      let bound = (8. *. (log (float_of_int bps) /. log 2.)) +. 64. in
      if vpq > bound then
        Alcotest.failf "visits/query %.1f exceeds log-R bound %.1f at %d breakpoints" vpq bound
          bps)

(* ------------------------------------------------------------------ *)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_point_and_window_queries;
        prop_earliest_fit_matches_reference;
        prop_bounded_fit_filters;
        prop_latest_fit_matches_reference;
        prop_release_inverts_reserve;
        prop_release_overfull_refused;
        prop_fold_segments_reproduce_profile;
        prop_reserve_keeps_input;
        prop_update_keys;
      ]
  in
  Alcotest.run "index"
    [
      ( "unit",
        [
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          Alcotest.test_case "empty index" `Quick test_empty_index;
          Alcotest.test_case "breakpoint count" `Quick test_breakpoint_count;
          Alcotest.test_case "fit windows at the ends of int" `Quick test_fit_int_extremes;
          Alcotest.test_case "blocked sentinel" `Quick test_blocked_sentinel;
          Alcotest.test_case "comb of blocked runs, one walk" `Quick test_comb_one_walk;
          Alcotest.test_case "one-descent update cases" `Quick test_update_cases;
          Alcotest.test_case "same-gap updates rotate" `Quick test_same_gap_rotations;
          Alcotest.test_case "release overflow refused" `Quick test_release_overflow;
        ] );
      ("properties", props);
      ("large-R", [ Alcotest.test_case "100k reservations, log-R visits" `Quick test_large_r_smoke ]);
    ]

(* Mp_index against a brute-force reference model: the persistent form,
   the Txn form and the reference must agree on every query over random
   reservation soups, and the structural invariants must survive random
   reserve/release sequences.  The large-R smoke at the end exercises the
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
(* Txn form vs persistent form *)

let prop_txn_matches_persistent =
  QCheck.Test.make ~name:"txn reserve/release/query sequence matches persistent" ~count:300
    (QCheck.make
       ~print:(fun (rs, ops) ->
         Printf.sprintf "rs=[%s] ops=[%s]" (print_soup rs)
           (String.concat "; "
              (List.map
                 (fun (rel, (s, d, np, at)) ->
                   Printf.sprintf "%s[%d,+%d)x%d@%d" (if rel then "rel" else "res") s d np at)
                 ops)))
       QCheck.Gen.(
         pair gen_soup
           (list_size (1 -- 24) (pair bool (quad (0 -- 40) (1 -- 10) (1 -- 6) (0 -- 45))))))
    (fun (rs, ops) ->
      let txn = Index.Txn.start (index_of_soup rs) in
      let idx = ref (index_of_soup rs) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (rel, (s, d, np, at)) ->
          let dur = max 1 (d / 2) in
          (* read-only queries see the transaction through [commit] *)
          let cur = Index.Txn.commit txn in
          check (Index.available_at cur at = Index.available_at !idx at);
          check (Index.min_in cur ~from_:at ~until:(at + 5) = Index.min_in !idx ~from_:at ~until:(at + 5));
          check (Index.breakpoints cur = Index.breakpoints !idx);
          check
            (Index.Txn.earliest_fit txn ~after:at ~procs:np ~dur
            = Index.earliest_fit !idx ~after:at ~procs:np ~dur);
          check
            (Index.Txn.earliest_fit ~limit:(at + 8) txn ~after:at ~procs:np ~dur
            = Index.earliest_fit ~limit:(at + 8) !idx ~after:at ~procs:np ~dur);
          check
            (Index.Txn.latest_fit txn ~earliest:0 ~finish_by:(at + 20) ~procs:np ~dur
            = Index.latest_fit !idx ~earliest:0 ~finish_by:(at + 20) ~procs:np ~dur);
          check
            (Index.can_reserve cur ~start:s ~finish:(s + d) ~procs:np
            = Index.can_reserve !idx ~start:s ~finish:(s + d) ~procs:np);
          if rel then begin
            let applied = Index.Txn.release txn ~start:s ~finish:(s + d) ~procs:np in
            match Index.release !idx ~start:s ~finish:(s + d) ~procs:np with
            | Some idx' ->
                check applied;
                idx := idx'
            | None -> check (not applied)
          end
          else begin
            let applied = Index.Txn.reserve txn ~start:s ~finish:(s + d) ~procs:np in
            match Index.reserve !idx ~start:s ~finish:(s + d) ~procs:np with
            | Some idx' ->
                check applied;
                idx := idx'
            | None -> check (not applied)
          end)
        ops;
      (* commit is the same snapshot the persistent fold reached *)
      let committed = Index.Txn.commit txn in
      Index.self_check committed;
      for t = -2 to 60 do
        check (Index.available_at committed t = Index.available_at !idx t)
      done;
      !ok)

let prop_txn_commit_isolated =
  QCheck.Test.make ~name:"commit snapshots are isolated from later txn updates" ~count:200
    (QCheck.make ~print:print_soup gen_soup) (fun rs ->
      let txn = Index.Txn.start (index_of_soup rs) in
      let snap = Index.Txn.commit txn in
      let before = Array.init 63 (fun i -> Index.available_at snap (i - 2)) in
      (* far-future window: always free in the generated soups *)
      let applied = Index.Txn.reserve txn ~start:100 ~finish:110 ~procs:cap in
      applied
      && Array.for_all Fun.id
           (Array.init 63 (fun i -> Index.available_at snap (i - 2) = before.(i)))
      && Index.available_at snap 105 = cap
      && Index.available_at (Index.Txn.commit txn) 105 = 0)

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
    (Index.earliest_fit (full ~start:0 ~finish:(max_int - 3)) ~after:0 ~procs:1 ~dur:5);
  let txn = Index.Txn.start (full ~start:0 ~finish:(max_int - 3)) in
  some "txn earliest: only clear run ends past max_int" None
    (Index.Txn.earliest_fit txn ~after:0 ~procs:1 ~dur:5);
  some "txn latest: finish_by - dur wraps" None
    (Index.Txn.latest_fit txn ~earliest:0 ~finish_by:(min_int + 3) ~procs:1 ~dur:5)

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
      let idx = ref (Index.create ~procs:4) and txn = Index.Txn.start (Index.create ~procs:4) in
      for i = 0 to teeth - 1 do
        idx := Option.get (Index.reserve !idx ~start:(10 * i) ~finish:((10 * i) + 5) ~procs:4);
        if not (Index.Txn.reserve txn ~start:(10 * i) ~finish:((10 * i) + 5) ~procs:4) then
          Alcotest.fail "txn refused a comb tooth"
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
      pin "txn earliest" after_comb (fun () -> Index.Txn.earliest_fit txn ~after:0 ~procs:1 ~dur:6);
      pin "persistent latest" before_comb (fun () ->
          Index.latest_fit !idx ~earliest:(-100) ~finish_by:10_000 ~procs:1 ~dur:6);
      pin "txn latest" before_comb (fun () ->
          Index.Txn.latest_fit txn ~earliest:(-100) ~finish_by:10_000 ~procs:1 ~dur:6))

(* ------------------------------------------------------------------ *)
(* Large-R smoke: 10^5 reservations, O(log R) visit bound *)

let test_large_r_smoke () =
  Mp_obs.with_enabled (fun () ->
      let q = 64 and r_target = 100_000 in
      let rng = Mp_prelude.Rng.create 7 in
      let horizon = 215 * r_target in
      let txn = Index.Txn.start (Index.create ~procs:q) in
      let kept = ref 0 and attempts = ref 0 in
      while !kept < r_target && !attempts < 3 * r_target do
        incr attempts;
        let start = Mp_prelude.Rng.int rng horizon in
        let dur = 60 + Mp_prelude.Rng.int rng 3541 in
        let procs = 1 + Mp_prelude.Rng.int rng 8 in
        if Index.Txn.reserve txn ~start ~finish:(start + dur) ~procs then incr kept
      done;
      if !kept < r_target then Alcotest.failf "built only %d of %d reservations" !kept r_target;
      let idx = Index.Txn.commit txn in
      Index.self_check idx;
      let bps = Index.breakpoints idx in
      if bps < r_target then Alcotest.failf "only %d breakpoints for %d reservations" bps !kept;
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
        prop_txn_matches_persistent;
        prop_txn_commit_isolated;
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
        ] );
      ("properties", props);
      ("large-R", [ Alcotest.test_case "100k reservations, log-R visits" `Quick test_large_r_smoke ]);
    ]

open Mp_prelude

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let check_float msg expected actual =
  if not (feq expected actual) then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int64 a) in
  let ys = List.init 50 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "Rng.int out of range: %d" x
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_uniform_int_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let x = Rng.uniform_int rng 3 7 in
    if x < 3 || x > 7 then Alcotest.failf "uniform_int out of range: %d" x;
    seen.(x - 3) <- true
  done;
  Alcotest.(check bool) "all values reachable" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 10. in
    if x < 0. || x >= 10. then Alcotest.failf "Rng.float out of range: %f" x
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 9 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng 2. 4.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.) < 0.05)

let test_rng_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 5.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.) < 0.2)

let test_rng_normal_moments () =
  let rng = Rng.create 17 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rng.normal rng ~mu:1. ~sigma:2.) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  Alcotest.(check bool) "mean near 1" true (Float.abs (m -. 1.) < 0.05);
  Alcotest.(check bool) "sd near 2" true (Float.abs (sd -. 2.) < 0.1)

let test_rng_bernoulli () =
  let rng = Rng.create 19 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 23 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_rng_choose () =
  let rng = Rng.create 29 in
  let chosen = Rng.choose rng 10 ~k:4 in
  Alcotest.(check int) "k elements" 4 (List.length chosen);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare chosen));
  List.iter (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 10)) chosen

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let test_variance () =
  (* sample variance of 2,4,4,4,5,5,7,9 = 32/7 *)
  check_float "variance" (32. /. 7.) (Stats.variance [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_variance_singleton () = check_float "variance" 0. (Stats.variance [ 5. ])
let test_stddev () = check_float "stddev" 2. (Stats.stddev [ 0.; 4.; 0.; 4.; 0.; 4.; 0.; 4. ] *. sqrt (7. /. 8.))

let test_cv () =
  let xs = [ 10.; 10.; 10. ] in
  check_float "cv of constants" 0. (Stats.cv xs)

let test_median_odd () = check_float "median" 3. (Stats.median [ 5.; 3.; 1. ])
let test_median_even () = check_float "median" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ])

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 5. (Stats.percentile xs 100.);
  check_float "p25" 2. (Stats.percentile xs 25.)

let test_min_max () =
  check_float "min" (-3.) (Stats.minimum [ 2.; -3.; 7. ]);
  check_float "max" 7. (Stats.maximum [ 2.; -3.; 7. ])

let test_correlation_perfect () =
  let xs = [ 1.; 2.; 3.; 4. ] in
  let ys = List.map (fun x -> (2. *. x) +. 1.) xs in
  check_float "corr=1" 1. (Stats.correlation xs ys);
  let zs = List.map (fun x -> -.x) xs in
  check_float "corr=-1" (-1.) (Stats.correlation xs zs)

let test_correlation_constant () =
  check_float "corr with constant" 0. (Stats.correlation [ 1.; 2.; 3. ] [ 5.; 5.; 5. ])

let test_correlation_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Stats.correlation: length mismatch")
    (fun () -> ignore (Stats.correlation [ 1. ] [ 1.; 2. ]))

let test_summarize () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "n" 5 s.n;
  check_float "mean" 3. s.mean;
  check_float "median" 3. s.median;
  check_float "min" 1. s.min;
  check_float "max" 5. s.max

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_default_jobs () =
  Alcotest.(check bool) "at least 1" true (Pool.default_jobs () >= 1)

let test_pool_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) - (3 * x) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs) (Pool.run ~jobs f xs))
    [ 1; 2; 4; 7 ]

let test_pool_more_workers_than_items () =
  Alcotest.(check (list int)) "jobs > n" [ 2; 4; 6 ] (Pool.run ~jobs:8 (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty input" [] (Pool.run ~jobs:4 (fun x -> x) [])

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check (list int)) "first batch" [ 1; 2; 3 ] (Pool.map p succ [ 0; 1; 2 ]);
      Alcotest.(check (list string)) "second batch, other type" [ "0"; "1" ]
        (Pool.map p string_of_int [ 0; 1 ]))

let test_pool_exception_propagates () =
  (* the smallest failing index wins, exactly as in a sequential run *)
  let f x = if x mod 3 = 0 then failwith (string_of_int x) else x in
  Alcotest.check_raises "smallest index" (Failure "0") (fun () ->
      ignore (Pool.run ~jobs:4 f (List.init 20 Fun.id)));
  Alcotest.check_raises "later failure" (Failure "9") (fun () ->
      ignore (Pool.run ~jobs:4 (fun x -> if x >= 9 then failwith (string_of_int x) else x)
                (List.init 20 Fun.id)))

let test_pool_shutdown () =
  let p = Pool.create ~jobs:2 () in
  Alcotest.(check (list int)) "usable" [ 0 ] (Pool.map p Fun.id [ 0 ]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "map after shutdown" (Invalid_argument "Pool.map: pool is shut down")
    (fun () -> ignore (Pool.map p Fun.id [ 0 ]))

let test_pool_uniform_errors () =
  (* the shutdown error is the same message for every jobs value — the
     old executor special-cased jobs = 1 — and fires even on empty input *)
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs () in
      Pool.shutdown p;
      let name s = Printf.sprintf "%s (jobs=%d)" s jobs in
      Alcotest.check_raises (name "map after shutdown")
        (Invalid_argument "Pool.map: pool is shut down") (fun () ->
          ignore (Pool.map p Fun.id [ 0 ]));
      Alcotest.check_raises (name "empty map after shutdown")
        (Invalid_argument "Pool.map: pool is shut down") (fun () ->
          ignore (Pool.map p Fun.id [])))
    [ 1; 2; 4 ]

let test_pool_reentrant_map () =
  (* a work item calling map on its own pool is rejected uniformly; the
     Invalid_argument travels through the slot/merge machinery like any
     other item exception *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          Alcotest.check_raises
            (Printf.sprintf "re-entrant map (jobs=%d)" jobs)
            (Invalid_argument "Pool.map: concurrent map on the same pool")
            (fun () -> ignore (Pool.map p (fun _ -> Pool.map p Fun.id [ 1 ]) [ 0 ]));
          (* the failed batch must not poison the pool *)
          Alcotest.(check (list int))
            (Printf.sprintf "pool survives (jobs=%d)" jobs)
            [ 1; 2 ] (Pool.map p succ [ 0; 1 ])))
    [ 1; 2; 4 ]

let prop_pool_run_is_map =
  QCheck.Test.make ~name:"Pool.run = List.map for any jobs" ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) -> Pool.run ~jobs (fun x -> x + 1) xs = List.map (fun x -> x + 1) xs)

(* Burn CPU proportional to [n] without allocating, so per-item costs can
   be made adversarially uneven (bimodal: a few items orders of magnitude
   slower) and steals actually happen while the batch is in flight. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc lxor i
  done;
  !acc

let uneven_cost = QCheck.(oneof [ int_range 0 200; int_range 20_000 60_000 ])

let prop_pool_steal_uneven =
  QCheck.Test.make ~name:"stealing pool = List.map under uneven costs" ~count:30
    QCheck.(pair (oneofl [ 1; 2; 4 ]) (small_list (pair small_int uneven_cost)))
    (fun (jobs, items) ->
      let f (v, cost) = ignore (spin cost); (v * 2) + 1 in
      Pool.run ~jobs f items = List.map f items)

let prop_pool_steal_exceptions =
  QCheck.Test.make ~name:"stealing pool exception = sequential (smallest index)" ~count:30
    QCheck.(pair (oneofl [ 1; 2; 4 ]) (small_list (triple small_int uneven_cost bool)))
    (fun (jobs, items) ->
      let f (v, cost, fail) =
        ignore (spin cost);
        if fail then failwith (string_of_int v) else v
      in
      let outcome run = match run () with v -> Ok v | exception Failure m -> Error m in
      outcome (fun () -> Pool.run ~jobs f items) = outcome (fun () -> List.map f items))

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_to_int () =
  let check name expected v = Alcotest.(check (option int)) name expected (Json.to_int v) in
  check "integral" (Some 42) (Json.Num 42.);
  check "negative" (Some (-7)) (Json.Num (-7.));
  check "lowest" (Some min_int) (Json.Num (-0x1p62));
  check "highest" (Some ((1 lsl 62) - 512)) (Json.Num (Float.pred 0x1p62));
  check "fraction" None (Json.Num 10.9);
  check "half" None (Json.Num (-0.5));
  check "2^62" None (Json.Num 0x1p62);
  check "huge" None (Json.Num 1e300);
  check "below range" None (Json.Num (-1e300));
  check "infinity" None (Json.Num Float.infinity);
  check "nan" None (Json.Num Float.nan);
  check "string" None (Json.Str "1");
  check "null" None Json.Null;
  match Json.of_string {|{"a":3,"b":2.5,"c":1e300}|} with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      Alcotest.(check (option int)) "field" (Some 3) (Json.int_ j "a");
      Alcotest.(check (option int)) "fractional field" None (Json.int_ j "b");
      Alcotest.(check (option int)) "huge field" None (Json.int_ j "c")

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_inclusive 100.)) (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_inclusive 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      Stats.minimum xs -. 1e-9 <= m && m <= Stats.maximum xs +. 1e-9)

let prop_correlation_bounded =
  QCheck.Test.make ~name:"correlation in [-1, 1]" ~count:200
    QCheck.(list_of_size Gen.(2 -- 30) (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun ps ->
      let xs = List.map fst ps and ys = List.map snd ps in
      let c = Stats.correlation xs ys in
      c >= -1.0000001 && c <= 1.0000001)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let x = Rng.int rng n in
      x >= 0 && x < n)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_percentile_monotone; prop_mean_between_min_max; prop_correlation_bounded; prop_rng_int_in_range; prop_pool_run_is_map; prop_pool_steal_uneven; prop_pool_steal_exceptions ]
  in
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "uniform_int range" `Quick test_rng_uniform_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choose distinct" `Quick test_rng_choose;
        ] );
      ( "pool",
        [
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
          Alcotest.test_case "map matches sequential" `Quick test_pool_map_matches_sequential;
          Alcotest.test_case "more workers than items" `Quick test_pool_more_workers_than_items;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "uniform errors across jobs" `Quick test_pool_uniform_errors;
          Alcotest.test_case "re-entrant map rejected" `Quick test_pool_reentrant_map;
        ] );
      ("json", [ Alcotest.test_case "to_int" `Quick test_json_to_int ]);
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "variance singleton" `Quick test_variance_singleton;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "cv constants" `Quick test_cv;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "percentile endpoints" `Quick test_percentile;
          Alcotest.test_case "min max" `Quick test_min_max;
          Alcotest.test_case "correlation perfect" `Quick test_correlation_perfect;
          Alcotest.test_case "correlation constant" `Quick test_correlation_constant;
          Alcotest.test_case "correlation mismatch" `Quick test_correlation_mismatch;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ("properties", qsuite);
    ]

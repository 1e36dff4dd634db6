let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let variance xs =
  let n = List.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    ss /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let cv xs =
  let m = mean xs in
  if Float.abs m < 1e-300 then 0. else stddev xs /. Float.abs m

let sorted xs = List.sort compare xs

let percentile xs p =
  match sorted xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n = 1 then a.(0)
      else begin
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = min (n - 1) (lo + 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
      end

let median xs = percentile xs 50.

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: xs -> List.fold_left max x xs

let correlation xs ys =
  let n = List.length xs in
  if n <> List.length ys then invalid_arg "Stats.correlation: length mismatch";
  if n < 2 then 0.
  else begin
    let mx = mean xs and my = mean ys in
    let sxy, sxx, syy =
      List.fold_left2
        (fun (sxy, sxx, syy) x y ->
          let dx = x -. mx and dy = y -. my in
          (sxy +. (dx *. dy), sxx +. (dx *. dx), syy +. (dy *. dy)))
        (0., 0., 0.) xs ys
    in
    if sxx < 1e-300 || syy < 1e-300 then 0. else sxy /. sqrt (sxx *. syy)
  end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  cv : float;
  min : float;
  max : float;
  median : float;
}

let summarize xs =
  {
    n = List.length xs;
    mean = mean xs;
    stddev = stddev xs;
    cv = cv xs;
    min = minimum xs;
    max = maximum xs;
    median = median xs;
  }


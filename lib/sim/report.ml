let f1 v = if v = infinity then "inf" else Printf.sprintf "%.1f" v
let f2 v = if v = infinity then "inf" else Printf.sprintf "%.2f" v
let f3 v = if v = infinity then "inf" else Printf.sprintf "%.3f" v

let render ~title ~header ~rows =
  let all = header :: rows in
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make n_cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let pad i cell =
    let w = widths.(i) in
    let s = cell ^ String.make (max 0 (w - String.length cell)) ' ' in
    s
  in
  let add_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_char buf '\n'
  in
  add_row header;
  let rule = String.make (Array.fold_left ( + ) (2 * (n_cols - 1)) widths) '-' in
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter add_row rows;
  Buffer.contents buf

let summary_rows (m1 : Metrics.row list) (m2 : Metrics.row list) =
  List.map2
    (fun (a : Metrics.row) (b : Metrics.row) ->
      if a.algo <> b.algo then invalid_arg "Report.summary_rows: algorithm order mismatch";
      [ a.algo; f2 a.avg_degradation; string_of_int a.wins; f2 b.avg_degradation; string_of_int b.wins ])
    m1 m2

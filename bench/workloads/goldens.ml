(* Digests of the workloads' outputs, generated at one worker; every
   worker count must reproduce them.  A seeded entry names the round that
   runs the workload at that seed itself (round 0); an entry without a
   seed holds for every round of every seed. *)

let table =
  [
    ("serve-protocol", Some 1, "03b7cdefe53d91aec69f8247f95f7e8b");
    ("serve-protocol", Some 2, "e229bc03566e8497125e68b793d68adf");
    ("serve-dag", Some 1, "6401f887ac7c2929961837790934ed70");
    ("serve-dag", Some 2, "d5a7dac14d014ebafb4cde3a8b9fb8b7");
    ("deadline-solve", Some 1, "d9e6aa38f089bdeaceaec966cd91c97c");
    ("deadline-solve", Some 2, "646b2990388b226273b787647b8c0420");
    ("sweep-campaign", None, "d3ba2a36530975f484603bbd88587195");
  ]

let find ~workload ~seed =
  List.find_map
    (fun (w, s, d) -> if w = workload && (s = None || s = Some seed) then Some d else None)
    table

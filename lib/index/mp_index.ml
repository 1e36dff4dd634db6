(* Balanced availability tree: an AVL tree keyed by breakpoint time where
   every node carries (a) the availability value holding from its
   breakpoint to the next one, (b) subtree (min, max) summaries of those
   values, and (c) a lazy "add" tag pending over the whole subtree
   (including the node's own value).  A reserve or release is one
   capacity descent, which reads the window's minimum or maximum, plus
   one update descent, which path-copies the search paths of the
   window's two ends, inserts the ends where absent and tags the fully
   covered subtrees between them.  Point and window queries and updates
   are O(log R); the fit queries are single in-order walks (forward for
   [earliest_fit], backward for [latest_fit]) that skip every subtree
   whose summaries decide it.  Ints are compared with [Int.min]/[Int.max]
   and int-typed operators: without flambda, [Stdlib.min]/[max] are
   calls into the polymorphic compare.

   Summary convention: for a node [{ v; mn; mx; d; _ }], the value seen
   from the parent is [v + d], and the subtree extrema seen from the
   parent are [mn + d] / [mx + d] — i.e. [mn]/[mx] are stored *before*
   the node's own pending tag.  Query descents carry [acc], the sum of
   the tags of strict ancestors; update descents [push] tags downward
   before destructuring. *)

let c_visits = Mp_obs.Counter.make "index.node_visits"
let c_descents = Mp_obs.Counter.make "index.descents"

let visit () = Mp_obs.Counter.incr c_visits
let descent () = Mp_obs.Counter.incr c_descents

type tree =
  | Leaf
  | Node of {
      l : tree;
      key : int;  (** breakpoint time *)
      v : int;  (** availability on [key, next key), before [d] *)
      r : tree;
      h : int;  (** AVL height *)
      lk : int;  (** least key in the subtree *)
      mn : int;  (** subtree min value, before [d] *)
      mx : int;  (** subtree max value, before [d] *)
      d : int;  (** pending add over the whole subtree, [v] included *)
    }

type t = { cap : int; root : tree; bps : int  (** breakpoints in [root] *) }

let height = function Leaf -> 0 | Node { h; _ } -> h

(* Effective subtree extrema as seen from the parent ([acc] = tags of
   strict ancestors of the *parent*, plus the parent's own tag). *)
let submin acc = function Leaf -> max_int | Node { mn; d; _ } -> mn + d + acc
let submax acc = function Leaf -> min_int | Node { mx; d; _ } -> mx + d + acc

(* Smart constructor: recompute aggregates, no pending tag. *)
let mk l key v r =
  Node
    {
      l;
      key;
      v;
      r;
      h = 1 + Int.max (height l) (height r);
      lk = (match l with Leaf -> key | Node { lk; _ } -> lk);
      mn = Int.min v (Int.min (submin 0 l) (submin 0 r));
      mx = Int.max v (Int.max (submax 0 l) (submax 0 r));
      d = 0;
    }

let tag dv = function
  | Leaf -> Leaf
  | Node nd -> Node { nd with d = nd.d + dv }

(* Fold the pending tag into the node itself and its children's tags, so
   the returned node has [d = 0] and may be destructured freely. *)
let push = function
  | Leaf -> Leaf
  | Node nd when nd.d = 0 -> Node nd
  | Node nd ->
      Node
        {
          nd with
          v = nd.v + nd.d;
          mn = nd.mn + nd.d;
          mx = nd.mx + nd.d;
          l = tag nd.d nd.l;
          r = tag nd.d nd.r;
          d = 0;
        }

(* AVL rebalancing (Stdlib.Map-style, tolerance 2; the two heights may
   differ by at most 3).  Children pulled apart by a rotation are
   [push]ed first so their tags are not lost. *)
let bal l key v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match push l with
    | Leaf -> assert false
    | Node { l = ll; key = lk; v = lv; r = lr; _ } ->
        if height ll >= height lr then mk ll lk lv (mk lr key v r)
        else (
          match push lr with
          | Leaf -> assert false
          | Node { l = lrl; key = lrk; v = lrv; r = lrr; _ } ->
              mk (mk ll lk lv lrl) lrk lrv (mk lrr key v r))
  else if hr > hl + 2 then
    match push r with
    | Leaf -> assert false
    | Node { l = rl; key = rk; v = rv; r = rr; _ } ->
        if height rr >= height rl then mk (mk l key v rl) rk rv rr
        else (
          match push rl with
          | Leaf -> assert false
          | Node { l = rll; key = rlk; v = rlv; r = rlr; _ } ->
              mk (mk l key v rll) rlk rlv (mk rlr rk rv rr))
  else mk l key v r

(* Insert a breakpoint known to be absent. *)
let rec insert t key v =
  match push t with
  | Leaf -> mk Leaf key v Leaf
  | Node nd ->
      visit ();
      if key < nd.key then bal (insert nd.l key v) nd.key nd.v nd.r
      else bal nd.l nd.key nd.v (insert nd.r key v)

(* Value of the greatest breakpoint <= time.  The sentinel at [min_int]
   guarantees a hit. *)
let value_at root time =
  let rec go t acc at =
    match t with
    | Leaf -> at
    | Node { l; key; v; r; d; _ } ->
        visit ();
        let acc = acc + d in
        if key <= time then go r acc (v + acc) else go l acc at
  in
  go root 0 0

(* Window extrema over the segments meeting [lo, hi): the value in
   force at [lo], held by the greatest key <= lo, and the value of every
   key in (lo, hi).  One descent follows the search paths of [lo] and
   [hi].  Above the node where they part, [at] is the value of the last
   key <= lo passed; below it, the [lo] side ([*_lo], every key there is
   < hi) and the [hi] side ([*_hi], every key there is > lo) each take
   whole the subtrees hanging inside the window, and a key equal to its
   end stops that side.  [m] is the extremum so far. *)
let rec min_lo t acc ~lo at m =
  match t with
  | Leaf -> Int.min at m
  | Node { l; key; v; r; d; _ } ->
      visit ();
      let acc = acc + d in
      if key < lo then min_lo r acc ~lo (v + acc) m
      else
        let m = Int.min m (Int.min (v + acc) (submin acc r)) in
        if key = lo then m else min_lo l acc ~lo at m

let rec min_hi t acc ~hi m =
  match t with
  | Leaf -> m
  | Node { l; key; v; r; d; _ } ->
      visit ();
      let acc = acc + d in
      if key > hi then min_hi l acc ~hi m
      else if key = hi then Int.min m (submin acc l)
      else min_hi r acc ~hi (Int.min m (Int.min (v + acc) (submin acc l)))

let rec window_min t acc ~lo ~hi at =
  match t with
  | Leaf -> at
  | Node { l; key; v; r; d; _ } ->
      visit ();
      let acc = acc + d in
      if key < lo then window_min r acc ~lo ~hi (v + acc)
      else if key = lo then min_hi r acc ~hi (v + acc)
      else if key > hi then window_min l acc ~lo ~hi at
      else if key = hi then min_lo l acc ~lo at max_int
      else min_hi r acc ~hi (min_lo l acc ~lo at (v + acc))

let rec max_lo t acc ~lo at m =
  match t with
  | Leaf -> Int.max at m
  | Node { l; key; v; r; d; _ } ->
      visit ();
      let acc = acc + d in
      if key < lo then max_lo r acc ~lo (v + acc) m
      else
        let m = Int.max m (Int.max (v + acc) (submax acc r)) in
        if key = lo then m else max_lo l acc ~lo at m

let rec max_hi t acc ~hi m =
  match t with
  | Leaf -> m
  | Node { l; key; v; r; d; _ } ->
      visit ();
      let acc = acc + d in
      if key > hi then max_hi l acc ~hi m
      else if key = hi then Int.max m (submax acc l)
      else max_hi r acc ~hi (Int.max m (Int.max (v + acc) (submax acc l)))

let rec window_max t acc ~lo ~hi at =
  match t with
  | Leaf -> at
  | Node { l; key; v; r; d; _ } ->
      visit ();
      let acc = acc + d in
      if key < lo then window_max r acc ~lo ~hi (v + acc)
      else if key = lo then max_hi r acc ~hi (v + acc)
      else if key > hi then window_max l acc ~lo ~hi at
      else if key = hi then max_lo l acc ~lo at min_int
      else max_hi r acc ~hi (max_lo l acc ~lo at (v + acc))

(* Add [dv] over [lo, hi) in one path-copying descent along the same
   two search paths, inserting [lo] and [hi] where absent: [lo] takes the
   value in force there plus [dv], [hi] the value in force there.  [at]
   is that value, tracked as in the window walks (after [push], a node's
   [v] is its current value).  Below the parting node the subtrees
   hanging inside the window are tagged.  When no key lies in [lo, hi],
   the two paths end at the same leaf: [lo] is inserted there and [hi]
   is left to a separate {!insert}, since a two-node chain in one leaf
   could grow a subtree by two levels, past what {!bal} repairs. *)
type ends = { mutable added : int; mutable hi_left : bool }

let rec add_lo t ~lo dv at e =
  match push t with
  | Leaf ->
      e.added <- e.added + 1;
      mk Leaf lo (at + dv) Leaf
  | Node nd ->
      visit ();
      if nd.key < lo then bal nd.l nd.key nd.v (add_lo nd.r ~lo dv nd.v e)
      else
        let r = tag dv nd.r in
        if nd.key = lo then mk nd.l nd.key (nd.v + dv) r
        else bal (add_lo nd.l ~lo dv at e) nd.key (nd.v + dv) r

let rec add_hi t ~hi dv at e =
  match push t with
  | Leaf ->
      e.added <- e.added + 1;
      mk Leaf hi at Leaf
  | Node nd ->
      visit ();
      if nd.key > hi then bal (add_hi nd.l ~hi dv at e) nd.key nd.v nd.r
      else
        let l = tag dv nd.l in
        if nd.key = hi then mk l nd.key nd.v nd.r
        else bal l nd.key (nd.v + dv) (add_hi nd.r ~hi dv nd.v e)

let rec add_window t ~lo ~hi dv at e =
  match push t with
  | Leaf ->
      e.added <- e.added + 1;
      e.hi_left <- true;
      mk Leaf lo (at + dv) Leaf
  | Node nd ->
      visit ();
      if nd.key < lo then bal nd.l nd.key nd.v (add_window nd.r ~lo ~hi dv nd.v e)
      else if nd.key = lo then bal nd.l nd.key (nd.v + dv) (add_hi nd.r ~hi dv nd.v e)
      else if nd.key > hi then bal (add_window nd.l ~lo ~hi dv at e) nd.key nd.v nd.r
      else if nd.key = hi then bal (add_lo nd.l ~lo dv at e) nd.key nd.v nd.r
      else bal (add_lo nd.l ~lo dv at e) nd.key (nd.v + dv) (add_hi nd.r ~hi dv nd.v e)

(* ------------------------------------------------------------------ *)
(* Public persistent API                                              *)
(* ------------------------------------------------------------------ *)

let create ~procs =
  if procs <= 0 then invalid_arg "Mp_index.create: procs <= 0";
  { cap = procs; root = mk Leaf min_int procs Leaf; bps = 1 }

let capacity t = t.cap
let breakpoints t = t.bps

let available_at t time =
  descent ();
  value_at t.root time

let min_in t ~from_ ~until =
  descent ();
  window_min t.root 0 ~lo:from_ ~hi:until max_int

let max_in t ~from_ ~until =
  descent ();
  window_max t.root 0 ~lo:from_ ~hi:until min_int

let check_window ~op ~(start : int) ~finish ~procs =
  if start >= finish then invalid_arg (op ^ ": start >= finish");
  if procs < 1 then invalid_arg (op ^ ": procs < 1")

let check_fit ~op ~procs ~dur =
  if procs < 1 then invalid_arg (op ^ ": procs < 1");
  if dur < 1 then invalid_arg (op ^ ": dur < 1")

let can_reserve t ~start ~finish ~procs =
  check_window ~op:"Mp_index.can_reserve" ~start ~finish ~procs;
  descent ();
  procs <= window_min t.root 0 ~lo:start ~hi:finish max_int

(* Add [dv] over [start, finish) after the capacity descent found the
   window's extremum [m].  When both ends fell in one gap, the window
   lies inside one segment, so [m] is the value [finish] takes.  The
   breakpoint count grows by the keys inserted. *)
let apply t ~start ~finish dv m =
  let e = { added = 0; hi_left = false } in
  let root = add_window t.root ~lo:start ~hi:finish dv 0 e in
  if e.hi_left then { t with root = insert root finish m; bps = t.bps + e.added + 1 }
  else { t with root; bps = t.bps + e.added }

let reserve t ~start ~finish ~procs =
  check_window ~op:"Mp_index.reserve" ~start ~finish ~procs;
  descent ();
  let mn = window_min t.root 0 ~lo:start ~hi:finish max_int in
  if procs > mn then None else Some (apply t ~start ~finish (-procs) mn)

(* [procs > cap - mx], not [mx + procs > cap]: the sum wraps for a
   [procs] near [max_int]. *)
let release t ~start ~finish ~procs =
  check_window ~op:"Mp_index.release" ~start ~finish ~procs;
  descent ();
  let mx = window_max t.root 0 ~lo:start ~hi:finish min_int in
  if procs > t.cap - mx then None else Some (apply t ~start ~finish procs mx)

(* Earliest fit.  Candidate starts are [after] and the clear breakpoints
   after it (the minimal feasible start is always one of these: sliding
   any other feasible start one second earlier stays feasible).  One
   in-order walk over the breakpoints finds it, carrying its state in a
   single int: [blocked], or the candidate start [s] of the clear run it
   is in.  A key <= [after] sets the state from its own value (the last
   one is the value in force at [after]); a key > [after] blocks the
   candidate, or opens a new one at its own time.  The walk stops at the
   first key >= s + dur reached while clear, or at the first key past
   [limit] reached while blocked, returning that key as a candidate past
   [limit].  Each node re-checks the stop on the state its left subtree
   returns, so the stop needs no state of its own.  A subtree is skipped
   whole when its summary shows that no key inside changes the state:
   [min >= procs] while clear, [max < procs] while blocked. *)
let blocked = min_int

let rec fit_walk t acc ~after ~limit ~procs ~dur st =
  match t with
  | Leaf -> st
  | Node { l; key; v; r; mn; mx; d; _ } ->
      visit ();
      let acc = acc + d in
      let unchanged = if st = blocked then mx + acc < procs else mn + acc >= procs in
      if unchanged then st
      else if key <= after then
        fit_walk r acc ~after ~limit ~procs ~dur (if v + acc >= procs then after else blocked)
      else
        let st = fit_walk l acc ~after ~limit ~procs ~dur st in
        let clear = v + acc >= procs in
        if st = blocked then
          if key > limit then key
          else fit_walk r acc ~after ~limit ~procs ~dur (if clear then key else blocked)
        else if st > limit || key >= st + dur then st
        else fit_walk r acc ~after ~limit ~procs ~dur (if clear then st else blocked)

(* No start past [max_int - dur]: its window would end past [max_int], so
   [limit] is clamped there, and a candidate <= [limit] never overflows
   [s + dur].  [after] is clamped above the sentinel key, so a candidate
   is never [blocked]. *)
let earliest_fit ?(limit = max_int) t ~after ~procs ~dur =
  check_fit ~op:"Mp_index.earliest_fit" ~procs ~dur;
  if procs > t.cap then None
  else begin
    descent ();
    let limit = Int.min limit (max_int - dur) and after = Int.max after (min_int + 1) in
    if after > limit then None
    else
      let s = fit_walk t.root 0 ~after ~limit ~procs ~dur blocked in
      if s = blocked || s > limit then None else Some s
  end

(* Latest fit, the mirror walk.  The candidate window is [e - dur, e),
   with [e] starting at [finish_by].  One reverse in-order walk over the
   breakpoints below [finish_by] lowers [e] to every blocked breakpoint
   whose segment meets the window.  It stops at the first segment that
   ends at or before [e - dur], since the window is then clear, or once
   [e] drops below [lo = earliest + dur], since no start reaches
   [earliest] any more.  [hi] is the key just after the subtree (where
   its last segment ends), and a node's own segment ends at its right
   subtree's least key, or at [hi].  A subtree is skipped whole when its
   summary decides it: all clear leaves [e] as it is, all blocked lowers
   [e] to the subtree's least key.  [e < lo] is tested first, so [e - dur]
   never wraps. *)
let rec latest_walk t acc ~hi ~lo ~finish_by ~procs ~dur e =
  match t with
  | Leaf -> e
  | Node { l; key; v; r; lk; mn; mx; d; _ } ->
      visit ();
      if e < lo || hi <= e - dur then e
      else
        let acc = acc + d in
        if key >= finish_by then latest_walk l acc ~hi:key ~lo ~finish_by ~procs ~dur e
        else if mn + acc >= procs then e
        else if mx + acc < procs then Int.min e lk
        else
          let e = latest_walk r acc ~hi ~lo ~finish_by ~procs ~dur e in
          let succ = match r with Leaf -> hi | Node { lk; _ } -> lk in
          if e < lo || succ <= e - dur then e
          else
            latest_walk l acc ~hi:key ~lo ~finish_by ~procs ~dur
              (if v + acc < procs then key else e)

(* No start in [earliest, finish_by - dur], tested without computing a
   [finish_by - dur] that would wrap; past the test, [earliest + dur <=
   finish_by] cannot overflow either. *)
let latest_fit t ~earliest ~finish_by ~procs ~dur =
  check_fit ~op:"Mp_index.latest_fit" ~procs ~dur;
  if procs > t.cap || finish_by < min_int + dur || finish_by - dur < earliest then None
  else begin
    descent ();
    let lo = earliest + dur in
    let e = latest_walk t.root 0 ~hi:max_int ~lo ~finish_by ~procs ~dur finish_by in
    if e >= lo then Some (e - dur) else None
  end

let fold_segments t ~from_ ~until ~init ~f =
  if from_ >= until then init
  else begin
    let v0 = value_at t.root from_ in
    (* In-order over breakpoints in (from_, until); each one closes the
       running segment and opens the next. *)
    let rec walk tree acc ((st : 'a * int * int) as state) =
      match tree with
      | Leaf -> state
      | Node { l; key; v; r; d; _ } ->
          let acc = acc + d in
          if key <= from_ then walk r acc state
          else if key >= until then walk l acc state
          else begin
            let a, seg_start, seg_val = walk l acc st in
            let a = f a ~start:seg_start ~finish:key ~avail:seg_val in
            walk r acc (a, key, v + acc)
          end
    in
    let a, seg_start, seg_val = walk t.root 0 (init, from_, v0) in
    f a ~start:seg_start ~finish:until ~avail:seg_val
  end

let iter_breakpoints t g =
  let rec go tree acc =
    match tree with
    | Leaf -> ()
    | Node { l; key; v; r; d; _ } ->
        let acc = acc + d in
        go l acc;
        g key (v + acc);
        go r acc
  in
  go t.root 0

let self_check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Recompute height/extrema bottom-up with tags resolved; collect keys
     in order, so each subtree's least key is the head of its list. *)
  let rec chk tree acc =
    match tree with
    | Leaf -> (0, max_int, min_int, [])
    | Node { l; key; v; r; h; lk; mn; mx; d } ->
        let acc = acc + d in
        let lh, lmn, lmx, lks = chk l acc in
        let rh, rmn, rmx, rks = chk r acc in
        if h <> 1 + Int.max lh rh then
          fail "Mp_index.self_check: height %d at key %d (want %d)" h key
            (1 + Int.max lh rh);
        if abs (lh - rh) > 2 then
          fail "Mp_index.self_check: imbalance %d at key %d" (lh - rh) key;
        let elk = match lks with [] -> key | k :: _ -> k in
        if lk <> elk then
          fail "Mp_index.self_check: least key %d at key %d (want %d)" lk key elk;
        let emn = Int.min (v + acc) (Int.min lmn rmn)
        and emx = Int.max (v + acc) (Int.max lmx rmx) in
        if mn + acc <> emn then
          fail "Mp_index.self_check: min summary %d at key %d (want %d)"
            (mn + acc) key emn;
        if mx + acc <> emx then
          fail "Mp_index.self_check: max summary %d at key %d (want %d)"
            (mx + acc) key emx;
        (h, emn, emx, lks @ (key :: rks))
  in
  let _, emn, emx, keys = chk t.root 0 in
  (match keys with
  | k0 :: _ when k0 = min_int -> ()
  | _ -> fail "Mp_index.self_check: missing min_int sentinel");
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        if a >= b then fail "Mp_index.self_check: key order %d >= %d" a b;
        sorted rest
    | _ -> ()
  in
  sorted keys;
  if List.length keys <> t.bps then
    fail "Mp_index.self_check: breakpoint count %d (want %d)" t.bps (List.length keys);
  if emn < 0 then fail "Mp_index.self_check: negative availability %d" emn;
  if emx > t.cap then
    fail "Mp_index.self_check: availability %d above capacity %d" emx t.cap

(* Counters, log-bucketed timers and spans behind one runtime switch.

   Hot-path discipline: every probe first reads [enabled] and falls
   through on false — no allocation, no system call, no lock.  When
   enabled, a probe touches only its own domain's buffer (obtained via
   domain-local storage), so worker domains never contend; the global
   mutex guards the cold paths only (instrument registration at module
   init, buffer registry, snapshot/reset at quiescence). *)

let enabled = ref false
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let with_enabled f =
  let prev = !enabled in
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := prev) f

(* --- instrument registry (cold) ------------------------------------- *)

let mutex = Mutex.create ()

type registry = { mutable names : string array; mutable n : int }

let counters = { names = [||]; n = 0 }
let timers = { names = [||]; n = 0 }
let spans = { names = [||]; n = 0 }

let register reg name =
  Mutex.lock mutex;
  let id = reg.n in
  if id >= Array.length reg.names then begin
    let a = Array.make (Int.max 8 (2 * Array.length reg.names)) "" in
    Array.blit reg.names 0 a 0 id;
    reg.names <- a
  end;
  reg.names.(id) <- name;
  reg.n <- id + 1;
  Mutex.unlock mutex;
  id

(* --- per-domain buffers ---------------------------------------------- *)

let n_buckets = 64

type hist_state = {
  mutable h_count : int;
  mutable h_total : int;
  mutable h_max : int;
  h_buckets : int array;
}

(* Span events are [event_stride] ints each: span id, start ns, duration
   ns, tag request id, tag site ([no_tag] when the event was recorded
   outside a {!Tag} scope). *)
let event_stride = 5
let no_tag = min_int

type buffer = {
  domain : int;
  mutable counts : int array;  (* indexed by counter id *)
  mutable hists : hist_state option array;  (* indexed by timer id *)
  mutable events : int array;  (* complete span events, [event_stride] ints each *)
  mutable n_events : int;  (* ints used in [events] *)
  (* span stack: ids and enter timestamps, innermost last *)
  mutable stack_ids : int array;
  mutable stack_ts : int array;
  mutable depth : int;
  (* request-scoped tag recorded on every span event of this domain *)
  mutable tag_req : int;
  mutable tag_site : int;
}

let buffers : buffer list ref = ref []
let event_cap = ref 1_000_000

let set_event_cap cap =
  if cap < 0 then invalid_arg "Mp_obs.set_event_cap: cap < 0";
  event_cap := cap

let c_dropped = register counters "obs.events.dropped"

let key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          domain = (Domain.self () :> int);
          counts = Array.make (Int.max 8 counters.n) 0;
          hists = Array.make (Int.max 8 timers.n) None;
          events = [||];
          n_events = 0;
          stack_ids = Array.make 16 0;
          stack_ts = Array.make 16 0;
          depth = 0;
          tag_req = no_tag;
          tag_site = no_tag;
        }
      in
      Mutex.lock mutex;
      buffers := b :: !buffers;
      Mutex.unlock mutex;
      b)

let buf () = Domain.DLS.get key

let grow_int_array a len =
  let a' = Array.make len 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* --- counters --------------------------------------------------------- *)

module Counter = struct
  type t = int

  let make name = register counters name

  (* The disabled path must stay one load-and-branch: the wrappers below
     are small enough to inline at every probe site, the outlined slow
     path runs only with the switch on. *)
  let[@inline never] add_on t n =
    let b = buf () in
    if t >= Array.length b.counts then
      b.counts <- grow_int_array b.counts (Int.max (t + 1) (2 * Array.length b.counts));
    b.counts.(t) <- b.counts.(t) + n

  let[@inline] add t n = if !enabled then add_on t n
  let[@inline] incr t = if !enabled then add_on t 1

  let find name =
    Mutex.lock mutex;
    let rec scan i =
      if i >= counters.n then None
      else if counters.names.(i) = name then Some i
      else scan (i + 1)
    in
    let id = scan 0 in
    Mutex.unlock mutex;
    id

  let local t =
    let b = buf () in
    if t < Array.length b.counts then b.counts.(t) else 0
end

(* --- timers ----------------------------------------------------------- *)

(* Bucket i holds samples whose elapsed ns lies in [2^i, 2^(i+1)) —
   bucket 0 also takes 0 and 1 ns. *)
let bucket_of ns =
  let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
  if ns <= 1 then 0 else go 0 ns

(* Quantile estimate shared by {!Snapshot.percentile} and
   {!Hist.percentile}: geometric midpoint of the log2 bucket holding the
   quantile, clamped to the recorded max. *)
let percentile_of_buckets ~count ~max_sample ~buckets q =
  if count = 0 then nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = Int.max 1 (int_of_float (ceil (q *. float_of_int count))) in
    let n = Array.length buckets in
    let rec go i acc =
      if i >= n then float_of_int max_sample
      else begin
        let acc = acc + buckets.(i) in
        if acc >= target then
          (* geometric midpoint of [2^i, 2^(i+1)) *)
          if i = 0 then 1.
          else Float.min (float_of_int max_sample) (sqrt 2. *. Float.pow 2. (float_of_int i))
        else go (i + 1) acc
      end
    in
    go 0 0
  end

module Hist = struct
  type t = hist_state

  let create () = { h_count = 0; h_total = 0; h_max = 0; h_buckets = Array.make n_buckets 0 }

  let clear h =
    h.h_count <- 0;
    h.h_total <- 0;
    h.h_max <- 0;
    Array.fill h.h_buckets 0 n_buckets 0

  let add h v =
    let v = Int.max 0 v in
    h.h_count <- h.h_count + 1;
    h.h_total <- h.h_total + v;
    if v > h.h_max then h.h_max <- v;
    let i = bucket_of v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1

  let count h = h.h_count
  let total h = h.h_total
  let max_sample h = h.h_max
  let buckets h = Array.copy h.h_buckets

  let merge_into ~into h =
    into.h_count <- into.h_count + h.h_count;
    into.h_total <- into.h_total + h.h_total;
    if h.h_max > into.h_max then into.h_max <- h.h_max;
    Array.iteri (fun i n -> into.h_buckets.(i) <- into.h_buckets.(i) + n) h.h_buckets

  let percentile h q =
    percentile_of_buckets ~count:h.h_count ~max_sample:h.h_max ~buckets:h.h_buckets q
end

module Summary = struct
  type t = { count : int; mean : float; p50 : int; p99 : int; p999 : int; max : int }

  (* Nearest-rank percentile of an ascending-sorted sample array —
     exactly the estimator the bench and serve reports used before it was
     extracted here, so baselines compare like for like. *)
  let percentile a p =
    let n = Array.length a in
    if n = 0 then 0 else a.(Int.min (n - 1) (int_of_float (p *. float_of_int n)))

  let of_samples samples =
    let a = Array.copy samples in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then { count = 0; mean = 0.; p50 = 0; p99 = 0; p999 = 0; max = 0 }
    else
      {
        count = n;
        mean = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n;
        p50 = percentile a 0.50;
        p99 = percentile a 0.99;
        p999 = percentile a 0.999;
        max = a.(n - 1);
      }

  let of_list samples = of_samples (Array.of_list samples)
end

module Timer = struct
  type t = int

  let make name = register timers name
  let[@inline] start () = if !enabled then now_ns () else 0

  let[@inline never] record t ns =
    let b = buf () in
    if t >= Array.length b.hists then begin
      let a = Array.make (Int.max (t + 1) (2 * Array.length b.hists)) None in
      Array.blit b.hists 0 a 0 (Array.length b.hists);
      b.hists <- a
    end;
    let h =
      match b.hists.(t) with
      | Some h -> h
      | None ->
          let h = { h_count = 0; h_total = 0; h_max = 0; h_buckets = Array.make n_buckets 0 } in
          b.hists.(t) <- Some h;
          h
    in
    h.h_count <- h.h_count + 1;
    h.h_total <- h.h_total + ns;
    if ns > h.h_max then h.h_max <- ns;
    let i = bucket_of ns in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1

  let[@inline never] stop_on t t0 = record t (Int.max 0 (now_ns () - t0))
  let[@inline] stop t t0 = if !enabled && t0 <> 0 then stop_on t t0
end

(* --- spans ------------------------------------------------------------ *)

module Span = struct
  type t = int

  let make name = register spans name

  let[@inline never] enter_on t =
    let b = buf () in
    if b.depth >= Array.length b.stack_ids then begin
      b.stack_ids <- grow_int_array b.stack_ids (2 * Array.length b.stack_ids);
      b.stack_ts <- grow_int_array b.stack_ts (2 * Array.length b.stack_ts)
    end;
    b.stack_ids.(b.depth) <- t;
    b.stack_ts.(b.depth) <- now_ns ();
    b.depth <- b.depth + 1

  let[@inline] enter t = if !enabled then enter_on t

  let[@inline never] exit_on t =
    let b = buf () in
    (* unmatched exit (e.g. the switch flipped mid-span): drop *)
    if b.depth > 0 && b.stack_ids.(b.depth - 1) = t then begin
      b.depth <- b.depth - 1;
      let t0 = b.stack_ts.(b.depth) in
      if b.n_events >= event_stride * !event_cap then Counter.incr c_dropped
      else begin
        if b.n_events + event_stride > Array.length b.events then
          b.events <-
            grow_int_array b.events
              (Int.max (16 * event_stride)
                 (Int.min (event_stride * !event_cap) (2 * Array.length b.events)));
        b.events.(b.n_events) <- t;
        b.events.(b.n_events + 1) <- t0;
        b.events.(b.n_events + 2) <- Int.max 0 (now_ns () - t0);
        b.events.(b.n_events + 3) <- b.tag_req;
        b.events.(b.n_events + 4) <- b.tag_site;
        b.n_events <- b.n_events + event_stride
      end
    end

  let[@inline] exit t = if !enabled then exit_on t

  let wrap t f =
    if not !enabled then f ()
    else begin
      enter t;
      match f () with
      | v ->
          exit t;
          v
      | exception e ->
          exit t;
          raise e
    end
end

(* --- request-scoped tags ---------------------------------------------- *)

module Tag = struct
  let[@inline never] set_on req site =
    let b = buf () in
    b.tag_req <- req;
    b.tag_site <- site

  let[@inline] set ~req ~site = if !enabled then set_on req site

  let[@inline never] clear_on () =
    let b = buf () in
    b.tag_req <- no_tag;
    b.tag_site <- no_tag

  let[@inline] clear () = if !enabled then clear_on ()
end

(* --- reset ------------------------------------------------------------ *)

let reset () =
  Mutex.lock mutex;
  List.iter
    (fun (b : buffer) ->
      Array.fill b.counts 0 (Array.length b.counts) 0;
      Array.iter
        (function
          | None -> ()
          | Some h ->
              h.h_count <- 0;
              h.h_total <- 0;
              h.h_max <- 0;
              Array.fill h.h_buckets 0 n_buckets 0)
        b.hists;
      b.n_events <- 0;
      b.depth <- 0;
      b.tag_req <- no_tag;
      b.tag_site <- no_tag)
    !buffers;
  Mutex.unlock mutex

(* --- snapshots -------------------------------------------------------- *)

module Snapshot = struct
  type hist = {
    hist_name : string;
    count : int;
    total_ns : int;
    max_ns : int;
    buckets : int array;
  }

  type event = {
    span_name : string;
    domain : int;
    start_ns : int;
    dur_ns : int;
    tag : (int * int) option;  (* (request id, site) when recorded in a Tag scope *)
  }

  type t = { counters : (string * int) list; hists : hist list; events : event list }

  let take () =
    Mutex.lock mutex;
    let bufs = !buffers in
    let n_counters = counters.n and n_timers = timers.n in
    let counter_rows =
      List.init n_counters (fun id ->
          let total =
            List.fold_left
              (fun acc b -> if id < Array.length b.counts then acc + b.counts.(id) else acc)
              0 bufs
          in
          (counters.names.(id), total))
    in
    let hist_rows =
      List.filter_map
        (fun id ->
          let buckets = Array.make n_buckets 0 in
          let count = ref 0 and total = ref 0 and max_ns = ref 0 in
          List.iter
            (fun (b : buffer) ->
              if id < Array.length b.hists then
                match b.hists.(id) with
                | None -> ()
                | Some h ->
                    Array.iteri (fun i n -> buckets.(i) <- buckets.(i) + n) h.h_buckets;
                    count := !count + h.h_count;
                    total := !total + h.h_total;
                    if h.h_max > !max_ns then max_ns := h.h_max)
            bufs;
          if !count = 0 then None
          else
            Some
              { hist_name = timers.names.(id); count = !count; total_ns = !total;
                max_ns = !max_ns; buckets })
        (List.init n_timers Fun.id)
    in
    let events =
      List.concat_map
        (fun (b : buffer) ->
          List.init (b.n_events / event_stride) (fun k ->
              let o = event_stride * k in
              let req = b.events.(o + 3) and site = b.events.(o + 4) in
              {
                span_name = spans.names.(b.events.(o));
                domain = b.domain;
                start_ns = b.events.(o + 1);
                dur_ns = b.events.(o + 2);
                tag = (if req = no_tag then None else Some (req, site));
              }))
        bufs
    in
    Mutex.unlock mutex;
    {
      counters = counter_rows;
      hists = hist_rows;
      events = List.sort (fun a b -> compare a.start_ns b.start_ns) events;
    }

  let sub t ~earlier =
    let prev_counts = earlier.counters in
    let counters =
      List.map
        (fun (name, v) ->
          match List.assoc_opt name prev_counts with
          | Some v0 -> (name, v - v0)
          | None -> (name, v))
        t.counters
    in
    let hists =
      List.filter_map
        (fun h ->
          let h' =
            match
              List.find_opt (fun h0 -> h0.hist_name = h.hist_name) earlier.hists
            with
            | None -> h
            | Some h0 ->
                {
                  h with
                  count = h.count - h0.count;
                  total_ns = h.total_ns - h0.total_ns;
                  (* max over the delta window is unknown; keep the global max *)
                  buckets = Array.init n_buckets (fun i -> h.buckets.(i) - h0.buckets.(i));
                }
          in
          if h'.count <= 0 then None else Some h')
        t.hists
    in
    let n_prev = List.length earlier.events in
    let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
    { counters; hists; events = drop n_prev t.events }

  let percentile h q =
    percentile_of_buckets ~count:h.count ~max_sample:h.max_ns ~buckets:h.buckets q
end

(* --- reports ---------------------------------------------------------- *)

let pp_ns ns =
  if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.1f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

module Report = struct
  let text ?(top = 12) (s : Snapshot.t) =
    let counters = List.filter (fun (_, v) -> v > 0) s.counters in
    if counters = [] && s.hists = [] then ""
    else begin
      let buf = Buffer.create 1024 in
      let counters =
        List.sort (fun (_, a) (_, b) -> compare (b : int) a) counters
      in
      let shown = List.filteri (fun i _ -> i < top) counters in
      if shown <> [] then begin
        Buffer.add_string buf "top counters:\n";
        let w =
          List.fold_left (fun acc (n, _) -> Int.max acc (String.length n)) 0 shown
        in
        List.iter
          (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" w name v))
          shown
      end;
      if s.hists <> [] then begin
        Buffer.add_string buf "timers (p50/p95/p99 from log2 buckets):\n";
        let w =
          List.fold_left (fun acc (h : Snapshot.hist) -> Int.max acc (String.length h.hist_name)) 0 s.hists
        in
        List.iter
          (fun (h : Snapshot.hist) ->
            let p q = pp_ns (Snapshot.percentile h q) in
            Buffer.add_string buf
              (Printf.sprintf "  %-*s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n" w
                 h.hist_name h.count
                 (pp_ns (float_of_int h.total_ns /. float_of_int h.count))
                 (p 0.5) (p 0.95) (p 0.99)
                 (pp_ns (float_of_int h.max_ns))))
          s.hists
      end;
      Buffer.contents buf
    end

  let json_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_json (s : Snapshot.t) =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n  \"schema\": \"mpres-obs-1\",\n  \"counters\": {";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\n    \"%s\": %d" (json_escape name) v))
      s.counters;
    Buffer.add_string buf "\n  },\n  \"timers\": {";
    List.iteri
      (fun i (h : Snapshot.hist) ->
        if i > 0 then Buffer.add_char buf ',';
        let p q =
          let v = Snapshot.percentile h q in
          if Float.is_nan v then 0. else v
        in
        Buffer.add_string buf
          (Printf.sprintf
             "\n    \"%s\": {\"count\": %d, \"total_ns\": %d, \"max_ns\": %d, \"p50_ns\": %.0f, \"p95_ns\": %.0f, \"p99_ns\": %.0f}"
             (json_escape h.hist_name) h.count h.total_ns h.max_ns (p 0.5) (p 0.95) (p 0.99)))
      s.hists;
    Buffer.add_string buf "\n  },\n  \"spans\": {";
    let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (e : Snapshot.event) ->
        match Hashtbl.find_opt tbl e.span_name with
        | None ->
            order := e.span_name :: !order;
            Hashtbl.add tbl e.span_name (1, e.dur_ns)
        | Some (n, total) -> Hashtbl.replace tbl e.span_name (n + 1, total + e.dur_ns))
      s.events;
    List.iteri
      (fun i name ->
        if i > 0 then Buffer.add_char buf ',';
        let n, total = Hashtbl.find tbl name in
        Buffer.add_string buf
          (Printf.sprintf "\n    \"%s\": {\"count\": %d, \"total_ns\": %d}" (json_escape name) n total))
      (List.rev !order);
    Buffer.add_string buf "\n  }\n}\n";
    Buffer.contents buf
end

module Trace = struct
  let to_chrome (s : Snapshot.t) =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    let first = ref true in
    let emit str =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      Buffer.add_string buf str
    in
    (* one named track per domain *)
    let domains =
      List.sort_uniq compare (List.map (fun (e : Snapshot.event) -> e.domain) s.events)
    in
    List.iter
      (fun d ->
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"domain %d\"}}"
             d d))
      domains;
    List.iter
      (fun (e : Snapshot.event) ->
        let args =
          match e.tag with
          | None -> ""
          | Some (req, site) -> Printf.sprintf ",\"args\":{\"req\":%d,\"site\":%d}" req site
        in
        emit
          (Printf.sprintf
             "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"name\":\"%s\",\"cat\":\"mpres\",\"ts\":%.3f,\"dur\":%.3f%s}"
             e.domain (Report.json_escape e.span_name)
             (float_of_int e.start_ns /. 1e3)
             (float_of_int e.dur_ns /. 1e3) args))
      s.events;
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

  let write_chrome path s =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_chrome s))
end

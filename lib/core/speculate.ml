module Pool = Mp_prelude.Pool
module Journal = Mp_forensics.Journal

(* Which probes a wave evaluates is a pure function of the search state,
   but whether a search speculates at all depends on the jobs value, so
   the whole spec.* family is excluded from the gated bench counter
   deltas alongside pool.* — see "Intra-schedule speculation" in
   DESIGN.md. *)
let c_waves = Mp_obs.Counter.make "spec.waves"
let c_wave_probes = Mp_obs.Counter.make "spec.wave.probes"
let c_wave_wasted = Mp_obs.Counter.make "spec.wave.wasted"

type t = { pool : Pool.t; busy : bool Atomic.t }

(* Wave width for the doubling-bracket fan-out.  A constant — never
   derived from the pool's worker count — so the set of probes a
   speculative search evaluates, and with it every deterministic counter
   it bumps, is identical for any jobs value. *)
let wave_width = 4

let create pool = { pool; busy = Atomic.make false }

let acquire = function
  | None -> None
  | Some t ->
      (* The stand-down rules are listed in the interface.  The busy
         flag turns the pool's non-reentrancy into a sequential fallback,
         deterministic because the outer search holds it throughout. *)
      if Pool.jobs t.pool < 2 || Journal.enabled () then None
      else if Atomic.compare_and_set t.busy false true then Some t
      else None

let release t = Atomic.set t.busy false

let lend spec ~speculative ~sequential =
  match acquire spec with
  | None -> sequential ()
  | Some t -> Fun.protect ~finally:(fun () -> release t) (fun () -> speculative t)

let map_array t thunks = Pool.map_array t.pool (fun thunk -> thunk ()) thunks

let first_some t thunks =
  Mp_obs.Counter.incr c_waves;
  Mp_obs.Counter.add c_wave_probes (Array.length thunks);
  let r = Pool.first_some t.pool thunks in
  (match r with
  | Some (i, _) -> Mp_obs.Counter.add c_wave_wasted (Array.length thunks - i - 1)
  | None -> ());
  r

let wave_probes n =
  Mp_obs.Counter.incr c_waves;
  Mp_obs.Counter.add c_wave_probes n

let wave_wasted n = Mp_obs.Counter.add c_wave_wasted n

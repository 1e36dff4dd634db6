module Dag = Mp_dag.Dag

type method_ = BD_ONE | BD_ALL | BD_HALF | BD_CPA | BD_CPAR | BD_ICASLB | BD_ICASLBR

let all = [ BD_ALL; BD_HALF; BD_CPA; BD_CPAR ]
let extended = all @ [ BD_ONE; BD_ICASLB; BD_ICASLBR ]

let name = function
  | BD_ONE -> "BD_ONE"
  | BD_ALL -> "BD_ALL"
  | BD_HALF -> "BD_HALF"
  | BD_CPA -> "BD_CPA"
  | BD_CPAR -> "BD_CPAR"
  | BD_ICASLB -> "BD_ICASLB"
  | BD_ICASLBR -> "BD_ICASLBR"

let bounds ~cpa m (env : Env.t) dag =
  match m with
  | BD_ONE -> Array.make (Dag.n dag) 1
  | BD_ALL -> Array.make (Dag.n dag) env.p
  | BD_HALF -> Array.make (Dag.n dag) (max 1 (env.p / 2))
  | BD_CPA -> cpa env.p
  | BD_CPAR -> cpa env.q
  | BD_ICASLB -> fst (Mp_cpa.Icaslb.allocate_and_schedule ~p:env.p dag)
  | BD_ICASLBR -> fst (Mp_cpa.Icaslb.allocate_and_schedule ~p:env.q dag)

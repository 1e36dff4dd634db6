module Dag = Mp_dag.Dag
module Task = Mp_dag.Task
module Allocation = Mp_cpa.Allocation
module Mapping = Mp_cpa.Mapping

type method_ = BL_1 | BL_ALL | BL_CPA | BL_CPAR

let all = [ BL_1; BL_ALL; BL_CPA; BL_CPAR ]
let name = function BL_1 -> "BL_1" | BL_ALL -> "BL_ALL" | BL_CPA -> "BL_CPA" | BL_CPAR -> "BL_CPAR"

let weights ~cpa m (env : Env.t) dag =
  match m with
  | BL_1 -> Array.map (fun tk -> Task.exec_time_f tk 1) (Dag.tasks dag)
  | BL_ALL -> Array.map (fun tk -> Task.exec_time_f tk env.p) (Dag.tasks dag)
  | BL_CPA -> Allocation.weights dag ~allocs:(cpa env.p)
  | BL_CPAR -> Allocation.weights dag ~allocs:(cpa env.q)

let order ~cpa m env dag = Mapping.bl_order dag ~weights:(weights ~cpa m env dag)

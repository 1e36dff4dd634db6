type t = unit

let create (_ : Mp_prelude.Pool.t) = ()

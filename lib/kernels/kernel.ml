open Estima_numerics

type t = {
  name : string;
  arity : int;
  eval : Vec.t -> float -> float;
  gradient : xs:float array -> Vec.t -> int -> float array -> unit;
  initial_guesses : xs:float array -> ys:float array -> Vec.t list;
  linear : bool;
}

let applicable t ~npoints = npoints >= t.arity

let residual_objective t ~xs ~ys =
  if Array.length xs <> Array.length ys then invalid_arg "Kernel.residual_objective: length mismatch";
  let rows = Array.length xs in
  let gradient_row = t.gradient ~xs in
  let residual_into params r =
    for i = 0 to rows - 1 do
      r.(i) <- t.eval params xs.(i) -. ys.(i)
    done
  in
  let jacobian_into params jac =
    for i = 0 to rows - 1 do
      gradient_row params i jac
    done
  in
  { Lm.rows; residual_into; jacobian_into }

type objective = {
  rows : int;
  residual_into : Vec.t -> Vec.t -> unit;
  jacobian_into : Vec.t -> float array -> unit;
}

type options = {
  max_iterations : int;
  tolerance_gradient : float;
  tolerance_step : float;
  tolerance_cost : float;
  initial_lambda : float;
  lambda_increase : float;
  lambda_decrease : float;
}

let default_options =
  {
    max_iterations = 200;
    tolerance_gradient = 1e-10;
    tolerance_step = 1e-12;
    tolerance_cost = 1e-12;
    initial_lambda = 1e-3;
    lambda_increase = 10.0;
    lambda_decrease = 10.0;
  }

type outcome = Converged | Max_iterations | Stalled

type result = { params : Vec.t; cost : float; iterations : int; outcome : outcome }

let cost_of_residual r = 0.5 *. Vec.dot r r

let lambda_ceiling = 1e12

(* Everything one [minimize] call writes, allocated once up front.  The
   trial point and its residual are swapped with the current ones when a
   step is accepted, never reallocated. *)
type workspace = {
  m : int;  (** Residual count. *)
  n : int;  (** Parameter count. *)
  jac : float array;  (** J, row-major [m x n]. *)
  grad : float array;  (** J^T r. *)
  col_norms : float array;  (** diag(J^T J), floored away from zero. *)
  stacked : float array;  (** The damped system [J; sqrt(lambda diag)], row-major [(m+n) x n]. *)
  rhs : float array;  (** [-r; 0], then Q^T of it. *)
  step : float array;
  heads : float array;  (** Householder scratch for {!Qr.solve_least_squares_into}. *)
  betas : float array;
  mutable params : Vec.t;
  mutable residual : Vec.t;
  mutable trial : Vec.t;
  mutable trial_residual : Vec.t;
}

let workspace ~m ~n =
  let floats k = Array.make k 0.0 in
  {
    m;
    n;
    jac = floats (m * n);
    grad = floats n;
    col_norms = floats n;
    stacked = floats ((m + n) * n);
    rhs = floats (m + n);
    step = floats n;
    heads = floats n;
    betas = floats n;
    params = floats n;
    residual = floats m;
    trial = floats n;
    trial_residual = floats m;
  }

(* g = J^T r, summed in row order like the product of the transpose. *)
let gradient ws =
  let { m; n; jac; grad; residual; _ } = ws in
  for j = 0 to n - 1 do
    let acc = ref 0.0 in
    for k = 0 to m - 1 do
      acc := !acc +. (jac.((k * n) + j) *. residual.(k))
    done;
    grad.(j) <- !acc
  done

let column_norms ws =
  let { m; n; jac; col_norms; _ } = ws in
  for j = 0 to n - 1 do
    let acc = ref 0.0 in
    for i = 0 to m - 1 do
      let v = jac.((i * n) + j) in
      acc := !acc +. (v *. v)
    done;
    (* Guard against zero columns: damp against unit scale instead. *)
    col_norms.(j) <- Float.max !acc 1e-30
  done

(* Solve the damped normal equations (J^T J + lambda diag(J^T J)) p = -J^T r
   via QR on the stacked system [J; sqrt(lambda) * sqrt(diag)] to avoid
   forming J^T J explicitly.  The step lands in [ws.step]. *)
let solve_damped_step ws lambda =
  let { m; n; jac; col_norms; stacked; rhs; residual; _ } = ws in
  Array.blit jac 0 stacked 0 (m * n);
  Array.fill stacked (m * n) (n * n) 0.0;
  for j = 0 to n - 1 do
    stacked.(((m + j) * n) + j) <- sqrt (lambda *. col_norms.(j))
  done;
  for i = 0 to m - 1 do
    rhs.(i) <- -.residual.(i)
  done;
  Array.fill rhs m n 0.0;
  Qr.solve_least_squares_into stacked ~rows:(m + n) ~cols:n ~heads:ws.heads ~betas:ws.betas rhs
    ws.step

let accept_trial ws =
  let params = ws.params and residual = ws.residual in
  ws.params <- ws.trial;
  ws.residual <- ws.trial_residual;
  ws.trial <- params;
  ws.trial_residual <- residual

let minimize ?(options = default_options) objective ~init =
  let n = Vec.dim init in
  if n = 0 then invalid_arg "Lm.minimize: empty parameter vector";
  let ws = workspace ~m:objective.rows ~n in
  Array.blit init 0 ws.params 0 n;
  objective.residual_into ws.params ws.residual;
  if not (Vec.all_finite ws.residual) then
    invalid_arg "Lm.minimize: non-finite residual at initial point";
  let cost = ref (cost_of_residual ws.residual) in
  let lambda = ref options.initial_lambda in
  let iterations = ref 0 in
  let outcome = ref Max_iterations in
  (try
     while !iterations < options.max_iterations do
       incr iterations;
       objective.jacobian_into ws.params ws.jac;
       if not (Vec.all_finite ws.jac) then begin
         outcome := Stalled;
         raise Exit
       end;
       (* Gradient convergence test. *)
       gradient ws;
       if Vec.norm_inf ws.grad < options.tolerance_gradient then begin
         outcome := Converged;
         raise Exit
       end;
       column_norms ws;
       (* Inner loop: grow lambda until a step is accepted. *)
       let accepted = ref false in
       while (not !accepted) && !lambda < lambda_ceiling do
         match solve_damped_step ws !lambda with
         | exception Qr.Singular -> lambda := !lambda *. options.lambda_increase
         | () ->
             let params = ws.params and step = ws.step and trial = ws.trial in
             for j = 0 to n - 1 do
               trial.(j) <- params.(j) +. step.(j)
             done;
             objective.residual_into trial ws.trial_residual;
             let trial_ok = Vec.all_finite ws.trial_residual in
             let trial_cost =
               if trial_ok then cost_of_residual ws.trial_residual else Float.infinity
             in
             if trial_ok && trial_cost < !cost then begin
               let step_small =
                 Vec.norm2 step < options.tolerance_step *. (Vec.norm2 params +. options.tolerance_step)
               in
               let cost_small = !cost -. trial_cost < options.tolerance_cost *. Float.max !cost 1e-300 in
               accept_trial ws;
               cost := trial_cost;
               lambda := Float.max (!lambda /. options.lambda_decrease) 1e-12;
               accepted := true;
               if step_small || cost_small then begin
                 outcome := Converged;
                 raise Exit
               end
             end
             else lambda := !lambda *. options.lambda_increase
       done;
       if not !accepted then begin
         outcome := Stalled;
         raise Exit
       end
     done
   with Exit -> ());
  { params = ws.params; cost = !cost; iterations = !iterations; outcome = !outcome }

let finite_difference_jacobian residual p =
  let r0 = residual p in
  let m = Vec.dim r0 and n = Vec.dim p in
  let jac = Mat.create m n 0.0 in
  let eps = sqrt epsilon_float in
  for j = 0 to n - 1 do
    let h = eps *. Float.max 1.0 (Float.abs p.(j)) in
    let plus = Vec.copy p and minus = Vec.copy p in
    plus.(j) <- plus.(j) +. h;
    minus.(j) <- minus.(j) -. h;
    let rp = residual plus and rm = residual minus in
    for i = 0 to m - 1 do
      Mat.set jac i j ((rp.(i) -. rm.(i)) /. (2.0 *. h))
    done
  done;
  jac

open Estima_numerics

(* Parameter layout for num_degree = p, den_degree = q:
   params.(0..p)       numerator coefficients a0..ap
   params.(p+1..p+q)   denominator coefficients b1..bq  (b0 is fixed at 1) *)

let horner coeffs first last x =
  let acc = ref 0.0 in
  for j = last downto first do
    acc := (!acc *. x) +. coeffs.(j)
  done;
  !acc

let eval ~num_degree ~den_degree params x =
  let num = horner params 0 num_degree x in
  let den = 1.0 +. (x *. horner params (num_degree + 1) (num_degree + den_degree) x) in
  num /. den

(* The powers x_i^j (j up to the larger degree) are tabulated once per
   grid with the same Float.pow calls the row would otherwise repeat at
   every iteration. *)
let gradient ~num_degree ~den_degree ~xs =
  let arity = num_degree + den_degree + 1 in
  let width = max num_degree den_degree + 1 in
  let powers = Array.make (Array.length xs * width) 0.0 in
  Array.iteri
    (fun i x ->
      for j = 0 to width - 1 do
        powers.((i * width) + j) <- Float.pow x (float_of_int j)
      done)
    xs;
  fun params i jac ->
    let x = xs.(i) in
    let num = horner params 0 num_degree x in
    let den = 1.0 +. (x *. horner params (num_degree + 1) (num_degree + den_degree) x) in
    let row = i * arity and pows = i * width in
    for j = 0 to num_degree do
      jac.(row + j) <- powers.(pows + j) /. den
    done;
    for k = 1 to den_degree do
      (* d/db_k of num/den = -num * x^k / den^2 *)
      jac.(row + num_degree + k) <- -.num *. powers.(pows + k) /. (den *. den)
    done

(* Linearised initial guess: multiply out the denominator,
     a0 + a1 x + ... - y b1 x - y b2 x^2 - ... = y
   and solve the resulting linear least-squares problem.  This is the
   classical rational-fit bootstrap; LM then refines the true objective. *)
let linearised_guess ~num_degree ~den_degree ~xs ~ys =
  let arity = num_degree + den_degree + 1 in
  let npoints = Array.length xs in
  if npoints < arity then None
  else
    let design =
      Mat.init npoints arity (fun i j ->
          if j <= num_degree then Float.pow xs.(i) (float_of_int j)
          else
            let k = j - num_degree in
            -.ys.(i) *. Float.pow xs.(i) (float_of_int k))
    in
    match Qr.solve_least_squares design ys with
    | exception Qr.Singular -> None
    | params -> if Vec.all_finite params then Some params else None

let initial_guesses ~num_degree ~den_degree ~xs ~ys =
  let arity = num_degree + den_degree + 1 in
  let from_linearisation =
    match linearised_guess ~num_degree ~den_degree ~xs ~ys with
    | Some p -> [ p ]
    | None -> []
  in
  (* Robust fallbacks: constant function at the data mean, and a gentle
     linear ramp; both with a neutral denominator. *)
  let mean_y = Stats.mean ys in
  let constant = Vec.init arity (fun j -> if j = 0 then mean_y else 0.0) in
  let ramp =
    Vec.init arity (fun j ->
        if j = 0 then ys.(0)
        else if j = 1 && num_degree >= 1 then (ys.(Array.length ys - 1) -. ys.(0)) /. Float.max 1.0 (xs.(Array.length xs - 1) -. xs.(0))
        else 0.0)
  in
  from_linearisation @ [ constant; ramp ]

let make ~name ~num_degree ~den_degree =
  if num_degree < 0 || den_degree < 1 then invalid_arg "Rational.make: bad degrees";
  {
    Kernel.name;
    arity = num_degree + den_degree + 1;
    eval = eval ~num_degree ~den_degree;
    gradient = gradient ~num_degree ~den_degree;
    initial_guesses = (fun ~xs ~ys -> initial_guesses ~num_degree ~den_degree ~xs ~ys);
    linear = false;
  }

let rat22 = make ~name:"Rat22" ~num_degree:2 ~den_degree:2
let rat23 = make ~name:"Rat23" ~num_degree:2 ~den_degree:3
let rat33 = make ~name:"Rat33" ~num_degree:3 ~den_degree:3

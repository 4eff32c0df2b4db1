exception Singular

let rank_tolerance = 1e-12

(* Householder QR in place on a row-major [rows x cols] array.  After
   [factor], the upper triangle of [a] holds R.  Reflector k is
   v = (heads.(k), a(k+1, k), ..., a(rows-1, k)) with scalar betas.(k):
   column k below the diagonal still holds the entries it had when
   reflector k was built, which are exactly v's tail, so the reflectors
   need no storage of their own.  betas.(k) = 0 means no reflection. *)
let factor a ~rows ~cols ~heads ~betas =
  Array.fill betas 0 cols 0.0;
  for k = 0 to min (rows - 1) (cols - 1) do
    let norm2 = ref 0.0 in
    for i = k to rows - 1 do
      let x = a.((i * cols) + k) in
      norm2 := !norm2 +. (x *. x)
    done;
    let alpha = sqrt !norm2 in
    let x0 = a.((k * cols) + k) in
    let alpha = if x0 >= 0.0 then -.alpha else alpha in
    let v0 = x0 -. alpha in
    let vnorm2 = ref (0.0 +. (v0 *. v0)) in
    for i = k + 1 to rows - 1 do
      let v = a.((i * cols) + k) in
      vnorm2 := !vnorm2 +. (v *. v)
    done;
    let beta = if !vnorm2 <= 0.0 then 0.0 else 2.0 /. !vnorm2 in
    heads.(k) <- v0;
    betas.(k) <- beta;
    if beta <> 0.0 then
      (* Apply the reflector to the trailing submatrix.  Column k's own
         entries below the diagonal would become (numerically) zero; they
         are never read as part of R, so they keep v's tail instead. *)
      for j = k to cols - 1 do
        let dot = ref (0.0 +. (v0 *. a.((k * cols) + j))) in
        for i = k + 1 to rows - 1 do
          dot := !dot +. (a.((i * cols) + k) *. a.((i * cols) + j))
        done;
        let s = beta *. !dot in
        a.((k * cols) + j) <- a.((k * cols) + j) -. (s *. v0);
        if j > k then
          for i = k + 1 to rows - 1 do
            a.((i * cols) + j) <- a.((i * cols) + j) -. (s *. a.((i * cols) + k))
          done
      done
  done

(* Apply reflector k of a factored [a] to the vector [b] in place. *)
let reflect a ~rows ~cols ~heads ~betas k b =
  let beta = betas.(k) in
  if beta <> 0.0 then begin
    let v0 = heads.(k) in
    let dot = ref (0.0 +. (v0 *. b.(k))) in
    for i = k + 1 to rows - 1 do
      dot := !dot +. (a.((i * cols) + k) *. b.(i))
    done;
    let s = beta *. !dot in
    b.(k) <- b.(k) -. (s *. v0);
    for i = k + 1 to rows - 1 do
      b.(i) <- b.(i) -. (s *. a.((i * cols) + k))
    done
  end

let back_substitute a ~cols b x =
  (* Scale the tolerance by the largest diagonal magnitude so rank detection
     is invariant to the overall scale of the system. *)
  let max_diag = ref 0.0 in
  for k = 0 to cols - 1 do
    max_diag := Float.max !max_diag (Float.abs a.((k * cols) + k))
  done;
  let tol = rank_tolerance *. Float.max 1.0 !max_diag in
  for i = cols - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to cols - 1 do
      acc := !acc -. (a.((i * cols) + j) *. x.(j))
    done;
    let d = a.((i * cols) + i) in
    if Float.abs d <= tol then raise Singular;
    x.(i) <- !acc /. d
  done

let solve_least_squares_into a ~rows ~cols ~heads ~betas b x =
  factor a ~rows ~cols ~heads ~betas;
  for k = 0 to min (rows - 1) (cols - 1) do
    reflect a ~rows ~cols ~heads ~betas k b
  done;
  back_substitute a ~cols b x

let solve_least_squares a b =
  let rows = Mat.rows a and cols = Mat.cols a in
  if rows <> Array.length b then invalid_arg "Qr.solve_least_squares: dimension mismatch";
  if rows < cols then invalid_arg "Qr.solve_least_squares: underdetermined system";
  let x = Array.make cols 0.0 in
  solve_least_squares_into (Mat.to_row_major a) ~rows ~cols ~heads:(Array.make cols 0.0)
    ~betas:(Array.make cols 0.0) (Array.copy b) x;
  x

let solve_square a b =
  if Mat.rows a <> Mat.cols a then invalid_arg "Qr.solve_square: matrix not square";
  solve_least_squares a b

let decompose a =
  let rows = Mat.rows a and cols = Mat.cols a in
  let r = Mat.to_row_major a and heads = Array.make cols 0.0 and betas = Array.make cols 0.0 in
  factor r ~rows ~cols ~heads ~betas;
  let rmat = Mat.init rows cols (fun i j -> if i <= j then r.((i * cols) + j) else 0.0) in
  (* Q e = H_0 H_1 ... H_k e: the reflectors in reverse order of Q^T. *)
  let q = Mat.create rows rows 0.0 in
  for col = 0 to rows - 1 do
    let e = Array.init rows (fun i -> if i = col then 1.0 else 0.0) in
    for k = min (rows - 1) (cols - 1) downto 0 do
      reflect r ~rows ~cols ~heads ~betas k e
    done;
    for i = 0 to rows - 1 do
      Mat.set q i col e.(i)
    done
  done;
  (q, rmat)

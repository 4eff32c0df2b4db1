(** Householder QR factorisation and least-squares solving.

    This is the linear-algebra workhorse under the Levenberg-Marquardt
    fitter: every damped Gauss-Newton step solves an overdetermined system
    [J p = r] in the least-squares sense.  Householder reflections are used
    for numerical stability (the normal equations square the condition
    number, which the near-singular rational-kernel Jacobians cannot
    afford). *)

exception Singular
(** Raised when the matrix is numerically rank-deficient. *)

val solve_least_squares_into :
  float array ->
  rows:int ->
  cols:int ->
  heads:float array ->
  betas:float array ->
  float array ->
  float array ->
  unit
(** [solve_least_squares_into a ~rows ~cols ~heads ~betas b x] is the
    allocation-free core of every solver here: it factors the row-major
    [rows x cols] matrix [a] ([rows >= cols]) in place by Householder
    reflections, applies Q^T to [b] in place, and back-substitutes the
    minimiser of [||a x - b||_2] into [x].  [heads] and [betas] are
    scratch of length [cols] holding the reflectors; [a] and [b] are
    overwritten.  Raises {!Singular} like {!solve_least_squares}; sizes
    are the caller's responsibility. *)

val solve_least_squares : Mat.t -> Vec.t -> Vec.t
(** [solve_least_squares a b] returns the minimiser of [||a x - b||_2] for a
    matrix with [rows >= cols].  Raises {!Singular} when a diagonal entry of
    R underflows the rank tolerance, and [Invalid_argument] on dimension
    mismatch or underdetermined systems. *)

val solve_square : Mat.t -> Vec.t -> Vec.t
(** [solve_square a b] solves [a x = b] for square [a] via QR.  Raises
    {!Singular} on rank deficiency. *)

val decompose : Mat.t -> Mat.t * Mat.t
(** [decompose a] returns [(q, r)] with [a = q r], [q] orthogonal
    ([rows x rows]) and [r] upper triangular ([rows x cols]).  Exposed for
    tests; the solvers use the implicit representation internally.
    Like {!solve_least_squares}, a wrapper that allocates and then runs
    the same in-place factorisation. *)

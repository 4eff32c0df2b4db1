(** Levenberg-Marquardt nonlinear least squares.

    Minimises [sum_i (f(params, x_i) - y_i)^2] over the parameter vector.
    This is the engine behind every kernel fit in the pipeline: the Table 1
    kernels of the paper are nonlinear in their coefficients (rational and
    exponential-of-rational forms), so a damped Gauss-Newton iteration with
    an adaptive Marquardt parameter is required.

    The Jacobian is supplied analytically by each kernel (see
    {!module:Estima_kernels.Kernel}); a finite-difference fallback is
    provided for tests and ad-hoc models. *)

type objective = {
  rows : int;  (** Number of residuals [m]. *)
  residual_into : Vec.t -> Vec.t -> unit;
      (** [residual_into p r] stores [f(p, x_i) - y_i] into [r.(i)] for
          every [i < rows]. *)
  jacobian_into : Vec.t -> float array -> unit;
      (** [jacobian_into p jac] stores [d residual_i / d p_j] into
          [jac.(i * n + j)] (row-major, [n = Vec.dim p]). *)
}
(** An in-place least-squares objective: {!minimize} owns the buffers and
    the objective only fills them, so an iteration allocates nothing of
    its own.  Both writers must overwrite every entry they are given and
    keep no reference to the buffers; they may run concurrently from
    several domains on distinct buffers. *)

type options = {
  max_iterations : int;       (** Outer iteration cap (default 200). *)
  tolerance_gradient : float; (** Stop when [||J^T r||_inf] falls below (1e-10). *)
  tolerance_step : float;     (** Stop when the relative step shrinks below (1e-12). *)
  tolerance_cost : float;     (** Stop when the relative cost decrease is below (1e-12). *)
  initial_lambda : float;     (** Initial Marquardt damping (1e-3). *)
  lambda_increase : float;    (** Damping multiplier on a rejected step (10). *)
  lambda_decrease : float;    (** Damping divisor on an accepted step (10). *)
}

val default_options : options

type outcome =
  | Converged       (** A stopping tolerance was met. *)
  | Max_iterations  (** Iteration cap reached; the best point so far is returned. *)
  | Stalled         (** Damping grew past recovery without an acceptable step. *)

type result = {
  params : Vec.t;       (** Best parameter vector found. *)
  cost : float;         (** Final 0.5 * ||residual||^2. *)
  iterations : int;
  outcome : outcome;
}

val minimize : ?options:options -> objective -> init:Vec.t -> result
(** Runs the iteration from [init] in one workspace allocated for this
    call (Jacobian, [J^T r], column norms, the stacked damped system and
    its right-hand side, the step, and the current and trial points and
    residuals); nothing is shared between calls.  Non-finite residuals at a trial point
    are treated as a rejected step (damping increases), so kernels with
    poles inside the search region are handled gracefully.  Raises
    [Invalid_argument] if [init] is empty or the residual at [init] is
    non-finite. *)

val finite_difference_jacobian : (Vec.t -> Vec.t) -> Vec.t -> Mat.t
(** Central-difference Jacobian, step [sqrt eps * max 1 |p_j|].  Useful for
    testing analytic Jacobians and for models without one. *)

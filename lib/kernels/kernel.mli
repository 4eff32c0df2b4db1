(** Extrapolation function kernels (paper Table 1).

    A kernel is a parametric family of analytic functions of the core count.
    ESTIMA fits each kernel to the measured values of one stall category and
    extrapolates the best fit to higher core counts.  The fitting machinery
    is in {!Fit}; this module defines the common shape. *)

open Estima_numerics

type t = {
  name : string;  (** Table 1 name, e.g. ["Rat22"]. *)
  arity : int;  (** Number of coefficients. *)
  eval : Vec.t -> float -> float;
      (** [eval params x] evaluates the function at core count [x].  May
          return non-finite values near poles; callers must filter. *)
  gradient : xs:float array -> Vec.t -> int -> float array -> unit;
      (** [gradient ~xs] does the per-grid work once (rational kernels
          tabulate [xs.(i)] to each power they need) and returns an
          in-place row writer: [w params i jac] stores the derivative of
          [eval params xs.(i)] with respect to coefficient [j] into
          [jac.(i * arity + j)], row [i] of the row-major
          Levenberg-Marquardt Jacobian.  The writer allocates no row of
          its own and touches no other row, so it is safe to share
          across domains filling distinct buffers. *)
  initial_guesses : xs:float array -> ys:float array -> Vec.t list;
      (** Candidate starting points for the nonlinear fit, typically from a
          linearised least-squares solve plus robust fallbacks.  May be
          empty when the kernel cannot apply (e.g. ExpRat on non-positive
          data). *)
  linear : bool;
      (** True when [eval] is linear in the coefficients, in which case the
          fit is a single QR solve and the initial guesses are exact. *)
}

val applicable : t -> npoints:int -> bool
(** A kernel can only be fitted when there are at least as many points as
    coefficients. *)

val residual_objective : t -> xs:float array -> ys:float array -> Lm.objective
(** In-place least-squares objective for {!Lm.minimize}: residuals
    [eval params xs.(i) -. ys.(i)] and the Jacobian rows of [gradient ~xs],
    staged once here and reused by every start and iteration. *)

open Estima_numerics
module Trace = Estima_obs.Trace

type fitted = {
  kernel_name : string;
  params : Vec.t;
  y_scale : float;
  fit_rmse : float;
  eval : float -> float;
}

(* How far beyond the fitted magnitude an extrapolation may wander before we
   call it an explosion rather than a trend.  Stall categories can grow
   superlinearly towards the target, but nothing physical grows by more
   than ~two orders of magnitude from the measured window. *)
let explosion_factor = 200.0

let make_fitted (kernel : Kernel.t) params ~y_scale ~xs ~ys =
  let eval x = kernel.Kernel.eval params x *. y_scale in
  let predictions = Array.map eval xs in
  if not (Vec.all_finite predictions) then None
  else Some { kernel_name = kernel.Kernel.name; params; y_scale; fit_rmse = Stats.rmse predictions ys; eval }

(* Reports one [fit] call to the trace sink; free when tracing is off. *)
let trace_attempt (kernel : Kernel.t) ~npoints status =
  if Trace.enabled () then begin
    Trace.incr "fit.attempts";
    (match status with
    | Trace.Fitted { lm_converged = true; _ } -> Trace.incr "fit.lm-converged"
    | Trace.Fitted _ -> Trace.incr "fit.lm-unconverged"
    | Trace.Not_applicable | Trace.No_guesses | Trace.Diverged -> Trace.incr "fit.failed");
    Trace.emit (Trace.Fit_attempt { kernel = kernel.Kernel.name; points = npoints; status })
  end

let status_of_result ~lm_converged = function
  | None -> Trace.Diverged
  | Some fitted -> Trace.Fitted { rmse = fitted.fit_rmse; lm_converged }

let fit (kernel : Kernel.t) ~xs ~ys =
  let npoints = Array.length xs in
  if npoints <> Array.length ys then invalid_arg "Fit.fit: length mismatch";
  if npoints = 0 then invalid_arg "Fit.fit: empty data";
  if not (Kernel.applicable kernel ~npoints) then begin
    trace_attempt kernel ~npoints Trace.Not_applicable;
    None
  end
  else
    let y_scale =
      let m = Vec.norm_inf ys in
      if m > 0.0 then m else 1.0
    in
    let ys_norm = Array.map (fun y -> y /. y_scale) ys in
    let guesses = kernel.Kernel.initial_guesses ~xs ~ys:ys_norm in
    if guesses = [] then begin
      trace_attempt kernel ~npoints Trace.No_guesses;
      None
    end
    else if kernel.Kernel.linear then (
      (* The linearised guess already is the least-squares optimum. *)
      match guesses with
      | params :: _ ->
          let result = make_fitted kernel params ~y_scale ~xs ~ys in
          trace_attempt kernel ~npoints (status_of_result ~lm_converged:true result);
          result
      | [] -> None)
    else begin
      let objective = Kernel.residual_objective kernel ~xs ~ys:ys_norm in
      let best = ref None in
      (* Starts are ranked in submission order: a later start must beat
         the incumbent strictly, so the parallel fan-out (which folds the
         results in that same order) picks the exact same optimum as the
         sequential loop. *)
      let consider params cost converged =
        match !best with
        | Some (_, best_cost, _) when best_cost <= cost -> ()
        | _ -> best := Some (params, cost, converged)
      in
      Estima_par.Fanout.map_consume (Array.of_list guesses)
        ~f:(fun init ->
          (* A start with a non-finite residual is refused by [minimize]. *)
          match Lm.minimize objective ~init with
          | result -> Some (result.Lm.params, result.Lm.cost, result.Lm.outcome = Lm.Converged)
          | exception Invalid_argument _ -> None)
        ~consume:(function
          | Some (params, cost, converged) -> consider params cost converged
          | None -> ());
      match !best with
      | None ->
          trace_attempt kernel ~npoints Trace.Diverged;
          None
      | Some (params, _, lm_converged) ->
          let result = make_fitted kernel params ~y_scale ~xs ~ys in
          trace_attempt kernel ~npoints (status_of_result ~lm_converged result);
          result
    end

let realistic fitted ~x_min ~x_max ~require_nonnegative =
  if x_max < x_min then invalid_arg "Fit.realistic: empty range";
  let bound = explosion_factor *. Float.max fitted.y_scale 1.0 in
  (* Negative excursions are tolerated up to a quarter of the data
     magnitude: downstream consumers clamp stall predictions at zero, and
     hockey-stick categories (near-zero head, exploding tail) force any
     matching fit slightly below zero at low core counts.  Only deeply
     negative fits are nonsense worth rejecting. *)
  let neg_slack = -0.25 *. Float.max fitted.y_scale 1.0 in
  let steps = 256 in
  let ok = ref true in
  (for i = 0 to steps do
     let x = x_min +. ((x_max -. x_min) *. float_of_int i /. float_of_int steps) in
     let v = fitted.eval x in
     if not (Float.is_finite v) then ok := false
     else if Float.abs v > bound then ok := false
     else if require_nonnegative && v < neg_slack then ok := false
   done);
  !ok

let evaluate_many fitted grid = Array.map fitted.eval grid

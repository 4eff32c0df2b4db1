(** Dense row-major float matrices.

    Sized for the fitting stack: systems here have at most a few dozen rows
    (one per measurement) and a handful of columns (one per kernel
    coefficient), so simplicity and numerical robustness win over blocking. *)

type t

val create : int -> int -> float -> t
(** [create rows cols x] is the matrix filled with [x]. *)

val init : int -> int -> (int -> int -> float) -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val identity : int -> t

val of_arrays : float array array -> t
(** Raises [Invalid_argument] if the rows are ragged or there are none. *)

val to_arrays : t -> float array array

val to_row_major : t -> float array
(** A fresh copy of the entries, row after row: entry (i, j) is at
    [i * cols + j].  The layout {!Qr.solve_least_squares_into} works on. *)

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t

val add_diagonal : t -> float -> t
(** [add_diagonal a mu] returns [a + mu*I]; requires a square matrix. *)

val scale_diagonal : t -> float -> t
(** [scale_diagonal a mu] returns [a + mu*diag(a)] (Marquardt damping). *)

val pp : Format.formatter -> t -> unit

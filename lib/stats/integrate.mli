(** One-dimensional numeric integration.

    The bandwidth-selection plug-in rules integrate squared derivatives of
    kernel density estimates; those integrands are piecewise smooth with
    compact support, for which composite Simpson on a fixed grid is accurate
    and predictable.  Adaptive Simpson is provided for the tests that verify
    kernel normalization to tight tolerances. *)

val trapezoid : (float -> float) -> a:float -> b:float -> n:int -> float
(** [trapezoid f ~a ~b ~n] composite trapezoid rule on [n] intervals.
    @raise Invalid_argument if [n <= 0] or bounds are not finite. *)

val simpson : (float -> float) -> a:float -> b:float -> n:int -> float
(** [simpson f ~a ~b ~n] composite Simpson rule; [n] is rounded up to even.
    @raise Invalid_argument if [n <= 0] or bounds are not finite. *)

val adaptive_simpson :
  ?eps:float -> ?max_depth:int -> (float -> float) -> a:float -> b:float -> float
(** [adaptive_simpson f ~a ~b] recursively subdivides until the local Simpson
    error estimate is below [eps] (default [1e-10]) or [max_depth] (default
    [50]) is reached. *)

val gauss_legendre_10 : (float -> float) -> a:float -> b:float -> float
(** [gauss_legendre_10 f ~a ~b] is the 10-point Gauss-Legendre quadrature of
    [f] over [[a, b]]: exact for polynomials up to degree 19 and far cheaper
    than composite Simpson for smooth integrands (used on the kernel
    boundary strips, whose integrands are smooth rationals).
    @raise Invalid_argument if the bounds are not finite. *)

val integrate_grid : float array -> float array -> float
(** [integrate_grid xs ys] trapezoid rule over tabulated points; [xs] must be
    strictly increasing and of the same length as [ys].
    @raise Invalid_argument on mismatched lengths or fewer than two points. *)

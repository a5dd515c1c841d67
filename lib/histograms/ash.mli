(** Average shifted histogram (Section 3.1; Scott [11]).

    An ASH with [m] shifts averages [m] equi-width histograms of identical
    bin width [h] whose origins differ by [h / m]; the estimate keeps the
    cheap histogram probe while smoothing away most of the dependence on the
    starting point.  The paper's final comparison (Figure 12) uses ten
    shifts. *)

type t

val build : domain:float * float -> bins:int -> shifts:int -> float array -> t
(** [build ~domain ~bins ~shifts samples] constructs [shifts] equi-width
    histograms with bin width [(hi - lo) / bins], the [j]-th shifted left by
    [j * h / shifts] (grids extended one bin beyond the domain so all
    samples stay covered).
    @raise Invalid_argument if [bins <= 0], [shifts <= 0], the domain is
    empty or the sample is empty. *)

val shifts : t -> int
(** Number of component histograms [m] averaged by this ASH. *)

val bin_width : t -> float
(** Common bin width [h] of the component histograms; successive origins
    differ by [h / shifts]. *)

val selectivity : t -> a:float -> b:float -> float
(** Mean of the component histograms' formula-(4) estimates. *)

val density : t -> float -> float
(** Mean of the component histograms' densities. *)

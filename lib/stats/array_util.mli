(** Utilities over sorted arrays: binary searches and order checks.

    All searches assume the array is sorted in non-decreasing order; this is
    asserted in debug builds but not checked in release code since the hot
    paths of the estimators call them once per query. *)

val is_sorted : ('a -> 'a -> int) -> 'a array -> bool
(** [is_sorted cmp a] is true iff [a] is non-decreasing under [cmp]. *)

val lower_bound : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** [lower_bound cmp a x] is the smallest index [i] with [cmp a.(i) x >= 0],
    or [Array.length a] if every element is smaller than [x].  In other
    words, the number of elements strictly below [x]. *)

val upper_bound : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** [upper_bound cmp a x] is the smallest index [i] with [cmp a.(i) x > 0],
    or [Array.length a]: the number of elements less than or equal to [x]. *)

val count_in_range : ('a -> 'a -> int) -> 'a array -> 'a -> 'a -> int
(** [count_in_range cmp a lo hi] is the number of elements [e] of the sorted
    array [a] with [lo <= e <= hi].  Returns 0 when [lo > hi]. *)

val float_lower_bound : float array -> float -> int
(** {!lower_bound} specialized to floats (avoids the closure on hot paths). *)

val float_upper_bound : float array -> float -> int
(** {!upper_bound} specialized to floats. *)

val int_lower_bound : int array -> int -> int
(** {!lower_bound} specialized to ints. *)

val int_upper_bound : int array -> int -> int
(** {!upper_bound} specialized to ints. *)

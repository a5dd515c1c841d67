(** Fixed-capacity uniform reservoir sample over a value stream.

    Vitter's Algorithm R: the reservoir holds a uniform sample (without
    replacement) of every value offered so far, using O(capacity) memory
    and one PRNG draw per offered value.  The adaptive serving path keeps
    one reservoir per catalog entry and rebuilds the entry's stored
    summary from {!sample} when the staleness budget trips — see
    [docs/ADAPTIVITY.md] for sizing guidance.

    Determinism: the generator is a private {!Prng.Splitmix64} advanced
    exactly once per offered value once the reservoir is full, so the
    retained sample is a pure function of [(seed, offered stream)] —
    independent of batch boundaries.  Two reservoirs with the same seed
    fed the same values element-for-element hold identical samples. *)

type t
(** Mutable reservoir state.  Not thread-safe; the serving engine touches
    reservoirs only under its catalog mutex. *)

val create : ?seed:int64 -> capacity:int -> unit -> t
(** [create ~capacity ()] is an empty reservoir retaining at most
    [capacity] values.  [seed] (default [0x5eedbeef1234]) seeds the
    private generator; vary it per entry to decorrelate replacement
    decisions across entries.
    @raise Invalid_argument if [capacity <= 0]. *)

val add : t -> float -> unit
(** [add t v] offers one value to the reservoir. *)

val add_array : t -> float array -> unit
(** [add_array t vs] offers [vs] in order; equivalent to [Array.iter (add t) vs]. *)

val capacity : t -> int
(** Maximum number of retained values, as passed to {!create}. *)

val size : t -> int
(** Number of values currently retained ([min capacity seen]). *)

val seen : t -> int
(** Total number of values offered so far (retained or not). *)

val sample : t -> float array
(** Fresh copy of the retained sample, length {!size}.  Order is an
    implementation detail (slot order, not arrival order). *)

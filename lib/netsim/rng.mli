(** Deterministic random numbers for the simulator.

    A thin wrapper over an explicit-state generator so every simulation
    is reproducible from its seed, and independent components can be
    given split streams that do not perturb each other. *)

type t

val create : int -> t
val split : t -> t
(** A new generator whose stream is a deterministic function of the
    parent's state; advancing either afterwards does not affect the
    other. *)

val derive : int -> index:int -> int
(** [derive seed ~index] is the child seed for the [index]-th task of a
    batch rooted at [seed] — a SplitMix64 avalanche mix of the pair, so
    the child stream depends only on [(seed, index)], never on the
    order tasks are claimed or executed. This is how [Exec] gives every
    parallel task its own reproducible stream.
    @raise Invalid_argument when [index < 0]. *)

val int : t -> int -> int
(** [int t bound] in [0, bound). @raise Invalid_argument when
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> p:float -> bool
(** [true] with probability [p]. *)

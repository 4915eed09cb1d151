(** 4-ary min-heap of timed events, ordered by (time, insertion seq)
    so simultaneous events fire in schedule order (a stable tie-break
    keeps simulations deterministic).

    Stored as parallel arrays (times, sequence numbers, values):
    pushing into a grown heap and {!min_time}/{!pop_min} allocate
    nothing. *)

type 'a t

val create : filler:'a -> unit -> 'a t
(** [filler] occupies every unused slot: a pop overwrites the slot it
    vacates with it, so the heap never keeps a popped value reachable
    (the engine passes a no-op closure). *)

val size : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> time:Sim_time.t -> 'a -> unit

val min_time : 'a t -> Sim_time.t
(** Time of the earliest event. @raise Invalid_argument when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event (the one {!min_time}
    reports). @raise Invalid_argument when empty. *)

val pop : 'a t -> (Sim_time.t * 'a) option
val peek_time : 'a t -> Sim_time.t option
val clear : 'a t -> unit

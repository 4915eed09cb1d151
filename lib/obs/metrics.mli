(** A registry of named metrics.

    Hot-path updates touch only the metric's own cell — a counter
    bump is one mutable-int increment, never a table lookup — while
    the registry remembers every registered name in registration
    order, so iteration (reports, JSON dumps) is deterministic for a
    deterministic construction order.

    Cells are standalone: a [Counter.t] can be created first, shared
    by several components (the protocol-counters pattern), and
    attached to a registry — or several registries — later. Attaching
    never copies; the registry reads the live cell.

    Names are expected to be unique per registry; a duplicate gets a
    deterministic ["#2"], ["#3"], … suffix rather than an error, so a
    harness that builds two same-named links still gets a readable
    dump instead of an exception mid-setup. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val get : t -> float
  (** [nan] until first set. *)
end

type t

val create : unit -> t

(** {2 Create-and-register} *)

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val summary : t -> string -> Stats.Summary.t

(** {2 Attach existing cells} *)

val attach_counter : t -> string -> Counter.t -> unit
val attach_summary : t -> string -> Stats.Summary.t -> unit

val merge : into:t -> t -> unit
(** [merge ~into src] attaches every one of [src]'s entries (the live
    cells, no copying) to [into], in [src]'s registration order, with
    the usual ["#k"] dedup against names already in [into].
    Deterministic for a deterministic pair of registration orders. *)

val int_source : t -> string -> (unit -> int) -> unit
(** Register a read-on-demand integer (e.g. a queue depth or an
    existing mutable record field) without restructuring its owner. *)


(** {2 Reading} *)

type value =
  | Int of int
  | Float of float
  | Summary of Stats.Summary.t
  | Quantiles of Stats.Quantiles.t

val iter : t -> (string -> value -> unit) -> unit
(** Registration order. *)

val find : t -> string -> value option
(** Linear scan; for tests and small reports, not hot paths. *)

val cardinal : t -> int

val to_json : t -> Json.t
(** One object, field per metric, registration order. *)

val pp : Format.formatter -> t -> unit
(** One [name value] line per metric, registration order. *)

(** Typed trace events in a bounded ring.

    The flight recorder: components record structured events
    (timestamped with raw nanoseconds — [Netsim.Sim_time.t] is [int])
    into a fixed-size ring that overwrites its oldest entries, so it
    can stay attached to an arbitrarily long run in constant memory.

    Recording is gated by a per-category enable mask. Every category
    starts {e disabled}; a disabled category costs one load and a land
    per probe. Hot paths should guard event construction with {!on} so
    tracing-off allocates nothing. Recording never touches the
    simulation: no RNG draws, no scheduling, no observable state —
    which is what lets golden tests demand byte-identical results with
    tracing on and off. *)

type category =
  | Link  (** packet lifecycle on links: enqueue / drop / deliver *)
  | Quack  (** quACK and frequency-control frames *)
  | Proto  (** protocol decisions: resync, local retransmit, notes *)
  | Table  (** flow-table admission control: admit / deny / evict *)

val all_categories : category list
val category_to_string : category -> string
val category_of_string : string -> category option

type drop_reason = Queue_full | Loss_model | Aqm

type event =
  | Enqueue of { link : string; flow : int; size : int }
  | Drop of { link : string; flow : int; reason : drop_reason }
  | Deliver of { link : string; flow : int; size : int }
  | Quack_sent of { dst : string; flow : int; index : int; bytes : int }
  | Quack_decoded of { node : string; flow : int; index : int; missing : int }
  | Freq_update of { dst : string; flow : int; interval : int }
  | Resync of { node : string; flow : int; to_index : int }
  | Retransmit of { node : string; flow : int; seq : int }
  | Admit of { table : string; flow : int }
  | Deny of { table : string; flow : int }
  | Evict of { table : string; flow : int }
  | Release of { table : string; flow : int }
      (** voluntary removal of a cleanly-terminated flow — distinct
          from [Evict], which marks state forced out under pressure *)
  | Note of { who : string; flow : int; what : string }
      (** escape hatch for one-off debugging; still typed enough to
          filter by flow *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 events; all categories disabled.
    @raise Invalid_argument when [capacity < 1]. *)

val enable : t -> category -> unit
val disable : t -> category -> unit
val enable_all : t -> unit
val on : t -> category -> bool
(** Cheap mask probe; guard event construction with this on hot
    paths. *)

val record : t -> time:int -> event -> unit
(** No-op unless the event's category is enabled. *)

val events : t -> (int * event) list
(** Chronological; at most [capacity] newest recorded events. *)

val total : t -> int
(** Events recorded (not counting mask-suppressed ones). *)

val dropped : t -> int
(** Recorded events overwritten by ring wrap-around. *)

val append : into:t -> t -> unit
(** [append ~into src] re-records [src]'s retained events into [into]'s
    ring in chronological order, bypassing [into]'s category mask (the
    events already passed [src]'s mask when first recorded). Used by
    [Sink.merge] to fold per-task traces together in submission
    order. *)

val clear : t -> unit
(** Empty the ring; the mask is left as-is. *)

val dump : Format.formatter -> t -> unit
val json_of_event : time:int -> event -> Json.t
val to_json : t -> Json.t

(** Receiver-side sidecar state (§3.2): fold in every observed packet
    identifier; emit a quACK on demand or on a packet-count schedule.

    This is all a client (or the downstream proxy of §2.3) needs — the
    per-packet cost is the amortised power-sum update. *)

type t

type emit_policy =
  | Manual  (** emit only when {!val-emit} is called *)
  | Every_packets of int  (** emit automatically every [k] insertions *)

val create :
  ?bits:int -> ?field:(module Sidecar_field.Modular.S) -> ?count_bits:int ->
  ?policy:emit_policy -> threshold:int -> unit -> t
(** Defaults: [bits = 32], [count_bits = 16], [policy = Manual].
    [field] substitutes arithmetic of the same width (e.g. the
    {!Sidecar_field.Log_field} tables), as {!Psum.create}. *)

val on_receive : t -> int -> Quack.t option
(** Fold one identifier in; returns a quACK when the policy fires. *)

val emit : t -> Quack.t
(** Snapshot the current sums as a quACK (cumulative — emitting does
    not reset anything, which is why lost quACKs are harmless). With
    nothing folded in since the last emission, returns that same
    quACK. *)

val received : t -> int
(** Total identifiers folded in. *)

val threshold : t -> int
val bits : t -> int

(** The receiving end host of a transport connection.

    Tracks received packet seqs (as merged intervals) and distinct
    application units; generates selective ACKs every [ack_every]
    data packets or after [max_ack_delay], whichever first. The
    ACK-frequency knob models QUIC's ack-frequency extension, which
    the ACK-reduction sidecar protocol turns {e down} (§2.2). *)

type t

val create :
  Netsim.Engine.t ->
  ?ack_every:int ->
  ?max_ack_delay:Netsim.Sim_time.span ->
  ?max_ranges:int ->
  ?id_key:Sidecar_quack.Identifier.key ->
  ?on_data:(Netsim.Packet.t -> unit) ->
  ?flow:int ->
  total_units:int ->
  send_ack:(Netsim.Packet.t -> unit) ->
  unit ->
  t
(** Defaults: ACK every 2, 25 ms max delay, 16 SACK ranges.
    [on_data] is the local sidecar tap: called for every arriving data
    packet (the client sidecar of §2.1 lives there). *)

val deliver : t -> Netsim.Packet.t -> unit
(** Entry point wired to the last downstream link. *)

val set_on_data : t -> (Netsim.Packet.t -> unit) -> unit
(** Replace the sidecar tap: for a tap that needs objects built after
    the receiver. *)

val set_ack_every : t -> int -> unit
(** The ACK-frequency extension: change how often e2e ACKs are sent. *)

val received_units : t -> int
val duplicates : t -> int
(** Data packets whose unit had already been delivered. *)

val complete_at : t -> Netsim.Sim_time.t option
(** Time the last distinct unit arrived, once all have. *)

val acks_sent : t -> int

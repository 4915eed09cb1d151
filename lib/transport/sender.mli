(** The sending end host of a transport connection.

    Window-based reliable delivery of [total_units] MSS-sized units:
    every transmission gets a fresh packet seq {e and} a fresh
    pseudo-random identifier (modelling per-transmission encryption —
    the property the quACK depends on). Loss detection is QUIC-style:
    a packet-reordering threshold plus a probe timeout.

    Congestion control is pluggable ({!Cc.t}) and can be driven
    {e externally}: with [~external_cc:true] the window ignores
    end-to-end ACKs (they still drive retransmission, as in §2.1) and
    moves only on {!external_ack} / {!external_congestion}, which a
    sidecar feeds from decoded quACKs. *)

type t

type stats = {
  mutable transmissions : int;  (** data packets sent, incl. retx *)
  mutable retransmissions : int;
  mutable congestion_events : int;
  mutable timeouts : int;  (** PTO fires *)
  mutable acked_units : int;  (** distinct units the peer reported *)
}

val create :
  Netsim.Engine.t ->
  ?mss:int ->
  ?header:int ->
  ?pkt_threshold:int ->
  ?max_ack_delay:Netsim.Sim_time.span ->
  ?external_cc:bool ->
  ?cc:Cc.t ->
  ?id_key:Sidecar_quack.Identifier.key ->
  ?on_transmit:(Netsim.Packet.t -> unit) ->
  ?initially_available:int ->
  ?flow:int ->
  total_units:int ->
  egress:(Netsim.Packet.t -> unit) ->
  unit ->
  t
(** Defaults: MSS 1460, 40-byte header (1500 B on the wire),
    reordering threshold 3, NewReno. [on_transmit] is the local
    sidecar tap (the server sidecar logs ids there).
    [initially_available] models a streaming source: only that many
    units may be transmitted until {!make_available} raises the
    watermark (default: everything). *)

val make_available : t -> int -> unit
(** Raise the streaming watermark: units below it become eligible for
    transmission. Monotonic; clamped to [total_units]. *)

val start : t -> unit
(** Begin transmitting; idempotent. *)

val deliver_ack : t -> Netsim.Packet.t -> unit
(** Entry point wired to the last upstream (return-path) link. *)

val external_ack :
  t -> acked_bytes:int -> rtt:Netsim.Sim_time.span option -> unit
(** Sidecar-provided delivery signal (grows the window when
    [external_cc] is set, ignored otherwise). Also (re)fills the
    window. *)

val external_congestion : t -> unit
(** Sidecar-provided congestion signal (shrinks the window when
    [external_cc] is set). *)

val sidecar_ack : t -> seqs:int list -> int
(** Provisional acknowledgement from a proxy quACK (§2.2): the listed
    packet seqs are known past the proxy, so free their window space
    now rather than a client-RTT later. The unit still needs an e2e
    ACK; if none arrives within ~3 RTO it is retransmitted (the
    paper's "use the less frequent end-to-end ACKs when retransmission
    is necessary"). Returns the bytes freed. *)

val cwnd : t -> int
val bytes_in_flight : t -> int
val stats : t -> stats
val srtt : t -> Netsim.Sim_time.span
val mss : t -> int
val total_units : t -> int

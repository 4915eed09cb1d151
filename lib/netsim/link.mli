(** A unidirectional link: fixed rate, propagation delay, a FIFO with
    either drop-tail or CoDel queue management, and a loss model
    applied after serialisation.

    Packets are store-and-forward: a packet waits in the queue, is
    consulted against the AQM at dequeue (if one is configured),
    occupies the transmitter for [size * 8 / rate], and then
    propagates for [delay]. The queue capacity bounds waiting
    packets; overflow drops, AQM drops, and loss-model drops are
    counted separately. *)

type t

(** A point-in-time snapshot of the link's tallies. The live values
    are registry cells in the engine's metrics registry (named
    ["link.<name>.<field>"]); this record is built on demand by
    {!stats} for harness code that wants plain fields. *)
type stats = {
  sent : int;  (** accepted into the queue *)
  delivered : int;
  dropped_loss : int;  (** loss-model drops *)
  dropped_queue : int;  (** tail drops (counted, not "sent") *)
  dropped_aqm : int;  (** CoDel drops at dequeue *)
  bytes_sent : int;
  bytes_delivered : int;
  queue_peak : int;
}

val create :
  Engine.t ->
  name:string ->
  rate_bps:int ->
  delay:Sim_time.span ->
  ?queue_capacity_pkts:int ->
  ?jitter:Sim_time.span ->
  ?loss:Loss.t ->
  ?aqm:Aqm.t ->
  ?deliver:(Packet.t -> unit) ->
  unit ->
  t
(** Defaults: queue of 1024 packets, no jitter, no loss, drop-tail
    (no AQM), no receiver (packets vanish until {!set_deliver} is
    called). [jitter] adds a uniform random extra propagation delay in
    [0, jitter] per packet — which {e reorders} packets, the §3.3
    hazard the reorder grace exists for.
    @raise Invalid_argument on a non-positive rate or capacity, or
    negative jitter. *)

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Wire the receiving end; needed to build cyclic topologies. *)

val set_tap : t -> (Packet.t -> unit) -> unit
(** Install a passive observer, called for every delivered packet just
    before the deliver callback. This is how a sidecar-style middlebox
    watches traffic without being in the forwarding path — taps cannot
    drop, delay, or modify packets. One tap per link; installing a
    second replaces the first. *)

val send : t -> Packet.t -> bool
(** Offer a packet; [false] means tail-dropped. *)

val name : t -> string

val stats : t -> stats
(** Snapshot of the live registry cells; cheap, build-on-read. *)

val mean_sojourn : t -> float
(** Average queueing delay (seconds) of packets that reached service. *)

val rate_bps : t -> int
val delay : t -> Sim_time.span
val loss_rate_observed : t -> float
(** Model drops / accepted, over the run so far. *)

val tx_time : t -> size:int -> Sim_time.span
(** Serialisation delay for a [size]-byte packet on this link. *)

(** Sidecar-protocol frames.

    Unlike transport payloads, these are {e addressed to} a sidecar
    and legitimately readable by it: quACKs and sidecar configuration
    travel as their own packets next to the opaque base-protocol
    traffic (Fig. 1(b)). *)

type Netsim.Packet.payload +=
  | Quack_frame of {
      quack : Sidecar_quack.Quack.t;
      src : string;
          (** which node emitted it — lets a sender folding feedback
              from several sidecars (multipath §5) attribute each quACK
              to its path *)
      dst : string;  (** which sidecar should consume it *)
      index : int;
          (** emission counter; lets a count-omitted receiver (§4.3
              ACK-reduction mode) reconstruct the implicit count even
              across lost quACKs *)
    }
  | Freq_update of { dst : string; interval_packets : int }
        (** §2.3: the sender-side proxy configures how often the
            receiver-side proxy quACKs *)

val encapsulation : int
(** UDP + IPv4 header bytes every sidecar frame pays (28). *)

val quack_packet :
  ?src:string ->
  quack:Sidecar_quack.Quack.t ->
  dst:string ->
  index:int ->
  count_omitted:bool ->
  flow:int ->
  now:Netsim.Sim_time.t ->
  unit ->
  Netsim.Packet.t
(** [flow] is the 5-tuple tag of the {e connection} this quACK is
    about, so multi-flow junctions can route sidecar feedback.
    [src] (default ["proxy"]) names the emitting node. *)

val freq_packet :
  dst:string -> interval_packets:int -> flow:int -> now:Netsim.Sim_time.t ->
  Netsim.Packet.t

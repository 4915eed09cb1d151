(** The scaffolding every many-flow driver shares: the web run
    ({!Scenario}) and the four scenario families ({!Handover},
    {!Multipath}, {!Adversary}, {!Leakage}). It holds the config block
    and validation, topology, workload, per-flow endpoints, proxies,
    the server's quACK seam ({!Sidecar_protocols.Server_seam}),
    sealing, the run loop and the FCT summary. A driver keeps only its
    arms on top of a harness [t].

    Topology: [near] from the server to a junction, then one or more
    far branches to the clients ({!Sidecar_protocols.Path.build}). *)

type common = {
  flows : int;
  table_flows : int;  (** flow-table capacity of every sidecar *)
  near : Sidecar_protocols.Path.segment;  (** server -> junction *)
  mss : int;
  min_units : int;
  max_units : int;
  arrival : Netsim.Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Netsim.Sim_time.t;
}
(** The config block every family config embeds. *)

val flash_crowd : Netsim.Workload.arrival
(** A 16-flow crowd 0.4 s in over a 50 ms Poisson background. *)

val poisson : Netsim.Workload.arrival
(** Poisson arrivals, 50 ms mean gap. *)

val default : arrival:Netsim.Workload.arrival -> common
(** 40 flows and table slots, a 100 Mbit/s 10 ms [near], MSS 1460,
    200 to 2000 units, a quACK every 16 packets, 32-bit identifiers,
    threshold 16, 16-bit counts, seed 1, a 180 s horizon. *)

val check : family:string -> common -> unit
(** @raise Invalid_argument ["<family>.run: need at least one flow"]
    or ["<family>.run: bad unit bounds"]. *)

type sizes =
  | Dist of Netsim.Workload.size_dist  (** clamped to the unit bounds *)
  | Sample of (Netsim.Rng.t -> int)

type clients = Star | Chain
(** Which forward links reach the clients: every far branch, or only
    the last link when the far segments are in series. *)

type t = private {
  cfg : common;
  engine : Netsim.Engine.t;
  fwd : Netsim.Link.t array;  (** [fwd.(0)] is [near], [fwd.(k)] far [k] *)
  rev : Netsim.Link.t array;
      (** receiver side first: the last entry is [near]'s *)
  units : int array;
  start_at : Netsim.Sim_time.t array;
  seam : int Sidecar_protocols.Server_seam.t;
  senders : Transport.Sender.t array;
  receivers : Transport.Receiver.t array;
  credit : int -> int Sidecar_quack.Sender_state.report -> unit;
      (** a fresh report: sidecar-ACK, then [on_fresh] *)
  mutable delivered_bytes : int;
}

val create :
  common ->
  far:Sidecar_protocols.Path.segment list ->
  sizes:sizes ->
  ?id_base:int ->
  ?pkt_threshold:int ->
  ?ack_link:(int -> int) ->
  ?field:(module Sidecar_field.Modular.S) ->
  ?server_sidecar:bool ->
  ?on_data:(t -> int -> (Netsim.Packet.t -> unit) option) ->
  ?on_fresh:(t -> int -> int Sidecar_quack.Sender_state.report -> unit) ->
  ?clients:clients ->
  unit ->
  t
(** Build the path, then draw unit sizes and arrival times from one
    split of the engine RNG, then create the server sender states (in
    [field]), senders and receivers, in that order. Flow [i]'s
    identifiers are keyed by [id_base + i] (default [0x51DE]), its
    sender uses reordering threshold [pkt_threshold] and logs into the
    server state unless [server_sidecar = false], its receiver's tap
    is [on_data t i], and its end-to-end ACKs leave on
    [rev.(ack_link i)] (default [0]). A fresh server decode
    sidecar-ACKs its packets, then calls [on_fresh t i]. Clients take
    data from the [clients] links (default [Star]), counted in
    [delivered_bytes]; the server takes quACKs through {!receive} and
    everything else through {!deliver_ack}. *)

val owns : t -> Netsim.Packet.t -> bool
(** The packet belongs to one of the run's flows. *)

val flow_done : t -> int -> bool

val fct : t -> int -> float
(** Flow [i]'s completion time in seconds; NaN while incomplete. *)

val proxy :
  t ->
  protocol:Sidecar_protocols.Protocol.t ->
  far:int ->
  ?policy:Flow_table.policy ->
  ?cost_clock:(unit -> float) ->
  ?backward:(Netsim.Packet.t -> unit) ->
  unit ->
  Proxy.t
(** A proxy running [protocol] in front of far link [far]: it forwards
    onto [fwd.(far)], takes that link's return traffic, and sends its
    own to [backward] (default {!to_server}). Its table holds
    [table_flows] flows under [policy] (default LRU). *)

val sidecar :
  t ->
  addr:string ->
  far:int ->
  ?backward:(Netsim.Packet.t -> unit) ->
  unit ->
  Proxy.t * Sidecar_protocols.Migration.handle
(** A {!proxy} running a {!Sidecar_protocols.Migration} sidecar with
    the common quACK parameters. *)

val to_server : t -> Netsim.Packet.t -> unit
(** Send onto the junction -> server link. *)

val deliver_ack : t -> Netsim.Packet.t -> unit
(** Hand an end-to-end ACK to its flow's sender, if {!owns}. *)

val apply : t -> int -> Sidecar_quack.Quack.t -> Sidecar_protocols.Server_seam.outcome
(** {!Sidecar_protocols.Server_seam.apply} on flow [i]. *)

val resync : t -> int -> Sidecar_quack.Quack.t -> Sidecar_protocols.Server_seam.outcome

val receive :
  t -> int -> index:int -> Sidecar_quack.Quack.t -> Sidecar_protocols.Server_seam.outcome
(** {!apply} behind flow [i]'s replay guard. *)

val replays_dropped : t -> int

val auth_key : int -> string
(** The quACK-authentication key the sidecar and the server share: in
    a deployment the out-of-band sidecar-protocol secret (§3.2
    configuration), here derived from the run seed so arms stay
    reproducible. The adversary never sees it. *)

val seal : key:string -> Netsim.Packet.t -> (Netsim.Packet.t * string) option
(** A server-bound quACK frame as a
    {!Sidecar_protocols.Adversary.Sealed} packet of its natural size,
    with its wire bytes; [None] for any other packet. *)

type summary = {
  flows : int;
  completed : int;
  fct_p50 : float;  (** NaN when no flow completed, as are the others *)
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  delivered_bytes : int;
  srv_resyncs : int;
  retransmissions : int;
  timeouts : int;
  duplicates : int;  (** duplicate deliveries at the clients *)
  sim_end : Netsim.Sim_time.t;
}

val start :
  t ->
  release:Proxy.t list ->
  ?on_start:(int -> unit) ->
  ?period:Netsim.Sim_time.span ->
  ?on_tick:(int -> unit) ->
  unit ->
  unit
(** Schedule each flow's start at its arrival time ([on_start i] right
    after its sender starts). Every [period] (default 500 ms) after
    that until the horizon, an open flow calls [on_tick i]; once
    complete, it releases its slots in [release]. *)

val finish : t -> summary
(** Run the engine to the horizon and summarise. *)

val run : t -> release:Proxy.t list -> ?on_start:(int -> unit) -> unit -> summary
(** {!start}, then {!finish}. *)

val json :
  summary ->
  head:(string * Obs.Json.t) list ->
  ?wedged:bool ->
  ?delivered:bool ->
  body:(string * Obs.Json.t) list ->
  ?replays_dropped:int ->
  ?duplicates:string ->
  unit ->
  Obs.Json.t
(** A family's JSON report: [head], [flows], [completed], [wedged]
    (flows incomplete at the horizon) if asked, the FCT fields,
    [data_delivered_bytes] unless [delivered = false], [body],
    [srv_resyncs], [srv_replays_dropped] if given, [retransmissions],
    [timeouts], the duplicate count named [duplicates] if given, and
    [sim_end_ns]. Schema-stable and wall-clock free: byte-identical
    for identical configs whatever the pool width. *)

val pp_outcome : wedged:bool -> Format.formatter -> summary -> unit
(** ["C/N completed by T"] and the FCT line. *)
